#!/bin/sh
# Passes when a program given a malformed command line reports it the way
# common::run_main does: a non-zero exit status that is not a signal
# (statuses from 128 up are how a shell reports one, SIGABRT included) and
# the program's usage ("Flags:") on stderr.
#
#   tools/expect_usage_error.sh <program> [malformed args...]
err=$("$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -eq 0 ] || [ "$status" -ge 128 ]; then
  echo "expected a usage error, got exit status $status" >&2
  printf '%s\n' "$err" >&2
  exit 1
fi
case "$err" in
  *"Flags:"*) exit 0 ;;
esac
echo "exit status $status but no usage on stderr:" >&2
printf '%s\n' "$err" >&2
exit 1
