#!/bin/sh
# Non-test lines of the workspace's own crates, per crate and in total.
#
# Counts every line of every `.rs` file under `crates/*/src` up to the
# first `#[cfg(test)]` line that is followed by a `mod ` line (the file's
# trailing test module), and leaves out `gradcheck.rs`, a test-only module.
# Run from anywhere: `scripts/nontest_lines.sh`. Not a gate; the count is
# the "non-test lines" figure CHANGES.md and ROADMAP.md quote.
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' ! -name gradcheck.rs -exec awk '
        FNR == 1 { if (held) n++; held = 0; done = 0 }
        done { next }
        held && /^mod / { done = 1; held = 0; next }
        held { n++; held = 0 }
        /^#\[cfg\(test\)\]$/ { held = 1; next }
        { n++ }
        END { if (held) n++; print n + 0 }
    ' {} + | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for src in crates/*/src; do
    lines=$(count "$src")
    printf '%-12s %6d\n' "$(basename "$(dirname "$src")")" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
