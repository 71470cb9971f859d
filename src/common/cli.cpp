#include "common/cli.hpp"

#include <iostream>
#include <sstream>

#include "common/error.hpp"

namespace airfinger::common {

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  const auto report = [&](const std::exception& e) {
    const std::string program = argc > 0 ? argv[0] : "airfinger";
    std::cerr << program.substr(program.find_last_of('/') + 1) << ": "
              << e.what() << "\n";
  };
  try {
    return body(argc, argv);
  } catch (const UsageError& e) {
    report(e);
    std::cerr << "\n" << e.usage();
    return 2;
  } catch (const PreconditionError& e) {
    report(e);
    return 1;
  }
}

Cli::Cli(std::string program_name, std::string description)
    : program_(std::move(program_name)), description_(std::move(description)) {}

void Cli::add_flag(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  AF_EXPECT(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{default_value, default_value, help};
  order_.push_back(name);
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) fail("expected --flag, got: " + arg);
    arg = arg.substr(2);
    std::string name, value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      auto it = flags_.find(name);
      if (it == flags_.end()) fail("unknown flag: --" + name);
      const bool is_bool = it->second.default_value == "true" ||
                           it->second.default_value == "false";
      if (is_bool) {
        value = "true";
      } else {
        if (i + 1 >= argc) fail("flag --" + name + " expects a value");
        value = argv[++i];
      }
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) fail("unknown flag: --" + name);
    it->second.value = value;
  }
  return true;
}

std::string Cli::get(const std::string& name) const {
  auto it = flags_.find(name);
  AF_EXPECT(it != flags_.end(), "unregistered flag: " + name);
  return it->second.value;
}

std::int64_t Cli::get_int(const std::string& name) const {
  const std::string v = get(name);
  try {
    return std::stoll(v);
  } catch (const std::exception&) {
    fail("flag --" + name + " is not an integer: " + v);
  }
}

double Cli::get_double(const std::string& name) const {
  const std::string v = get(name);
  try {
    return std::stod(v);
  } catch (const std::exception&) {
    fail("flag --" + name + " is not a number: " + v);
  }
}

bool Cli::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  fail("flag --" + name + " is not a boolean: " + v);
}

std::string Cli::usage() const {
  std::ostringstream os;
  os << program_;
  if (!description_.empty()) os << " — " << description_;
  os << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const auto& f = flags_.at(name);
    os << "  --" << name << " (default: " << f.default_value << ")\n      "
       << f.help << "\n";
  }
  return os.str();
}

}  // namespace airfinger::common
