#!/usr/bin/env bash
# Unsafe-code gate.
#
#   scripts/check_unsafe.sh
#
# `mobigrid-pool` holds the workspace's only unsafe block (the lifetime
# erasure in `Workers::broadcast`). Every other library crate root, and the
# root facade, must keep `#![forbid(unsafe_code)]`, and no other source
# file may use `unsafe` — except the zero-allocation test binary, whose
# counting `#[global_allocator]` must implement the unsafe `GlobalAlloc`.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for root in src/lib.rs crates/*/src/lib.rs; do
  case "$root" in crates/pool/*) continue ;; esac
  if ! grep -q '^#!\[forbid(unsafe_code)\]' "$root"; then
    echo "missing #![forbid(unsafe_code)]: $root" >&2
    status=1
  fi
done

stray=$(grep -rlE '\bunsafe *(\{|fn|impl)' --include='*.rs' src tests examples crates \
  | grep -vE '^crates/pool/|^crates/bench/tests/zero_alloc\.rs$' || true)
if [ -n "$stray" ]; then
  echo "unsafe outside crates/pool:" >&2
  echo "$stray" >&2
  status=1
fi

[ "$status" -eq 0 ] && echo "unsafe gate OK"
exit "$status"
