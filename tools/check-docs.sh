#!/usr/bin/env bash
# Documentation drift checks, run as part of the default ctest suite
# (test name: check_docs):
#   1. every relative markdown link resolves to an existing file;
#   2. every backticked source or doc path resolves to an existing file;
#   3. every LO_* environment knob referenced anywhere in the code
#      appears in docs/tuning.md, the canonical knob table;
#   4. every LO_* name in docs/tuning.md is still read by the code,
#      every --flag row in its server/coordinator flag tables is still
#      parsed by that tool, and every field row of its storage::Options
#      and cluster::StorageNodeOptions tables is still declared by the
#      header its section names, so a deleted knob cannot outlive its
#      code;
#   5. every flag a lambdastore_* tool parses is in that tool's table;
#   6. every "--name= literal in the tests and benches names a flag that
#      lambdastore-server or lambdastore-coordinator parses;
#   7. every backticked metric name in docs/tuning.md's "Reading the obs
#      metrics" section is still registered under src/.
set -u

# Resolve the repo root from the script's own (symlink-free) location,
# never from the caller's working directory — ctest runs tests from the
# build tree, and a cwd-relative root silently skipped docs/ there.
script="${BASH_SOURCE[0]:-$0}"
while [ -h "$script" ]; do
  dir="$(cd "$(dirname "$script")" && pwd)"
  script="$(readlink "$script")"
  case "$script" in
    /*) ;;
    *) script="$dir/$script" ;;
  esac
done
root="$(cd "$(dirname "$script")/.." && pwd)"

broken=$(
  # Every markdown file in the tree, however deeply nested, excluding
  # build trees and VCS internals.
  find "$root" \
    -name '.git' -prune -o -name 'build*' -prune -o \
    -name '*.md' -print | while read -r md; do
    dir="$(dirname "$md")"
    # Every [text](target); external URLs and in-page anchors excluded.
    # Fenced code blocks are stripped first: C++ lambdas (`[](...)`)
    # would otherwise read as markdown links.
    awk '/^[[:space:]]*```/ { in_code = !in_code; next } !in_code' "$md" |
      grep -oE '\]\([^)#? ]+' | sed 's/^](//' | while read -r link; do
      case "$link" in
        http://* | https://* | mailto:*) continue ;;
      esac
      if [ ! -e "$dir/$link" ]; then
        echo "BROKEN: ${md#"$root"/} -> $link"
      fi
    done
  done
)

if [ -n "$broken" ]; then
  echo "$broken"
  exit 1
fi
echo "all documentation links resolve"

# Stale path references: a backticked path with a directory part and a
# source or doc extension must name an existing file, relative to the
# repo root, to src/ (headers are quoted by their include path), or to
# the markdown file's own directory. Exempt are CHANGES.md, the history,
# and task lists (files with "- [ ]" items), which plan changes and so
# name files that do not exist yet or no longer exist.
stale_paths=$(
  find "$root" \
    -name '.git' -prune -o -name 'build*' -prune -o \
    -name '*.md' -print | while read -r md; do
    [ "${md#"$root"/}" = CHANGES.md ] && continue
    grep -qE '^[[:space:]]*[-*] \[[ xX]\] ' "$md" && continue
    dir="$(dirname "$md")"
    awk '/^[[:space:]]*```/ { in_code = !in_code; next } !in_code' "$md" |
      grep -oE '`[^`]+`' | tr -d '`' |
      grep -E '^[A-Za-z0-9_./-]+/[A-Za-z0-9_.-]+\.(h|cc|cpp|py|sh|json|md)$' |
      while read -r path; do
        if [ ! -e "$root/$path" ] && [ ! -e "$root/src/$path" ] &&
          [ ! -e "$dir/$path" ]; then
          echo "STALE PATH: ${md#"$root"/} -> $path"
        fi
      done
  done
)
if [ -n "$stale_paths" ]; then
  echo "$stale_paths"
  exit 1
fi
echo "all backticked paths resolve"

# Knob drift: every LO_* environment variable the code reads must be
# documented in docs/tuning.md. Only quoted literals in C++ sources
# count — a quoted LO_ name is a getenv-style knob; bare LO_ tokens are
# macros (LO_CHECK, LO_SERVER_BIN_DEFAULT) and compile-time
# identifiers, not knobs.
tuning="$root/docs/tuning.md"
if [ ! -f "$tuning" ]; then
  echo "MISSING: docs/tuning.md (canonical knob table)"
  exit 1
fi
missing=$(
  grep -rhoE --include='*.cpp' --include='*.cc' --include='*.h' \
    '"LO_[A-Z_]+"' \
    "$root/src" "$root/bench" "$root/tools" "$root/tests" 2>/dev/null |
    tr -d '"' | sort -u | while read -r knob; do
    if ! grep -q "$knob" "$tuning"; then
      echo "UNDOCUMENTED KNOB: $knob (add it to docs/tuning.md)"
    fi
  done
)
if [ -n "$missing" ]; then
  echo "$missing"
  exit 1
fi
echo "all LO_* knobs are documented in docs/tuning.md"

# "<tool path> <first cell>" for every flag row of each tool's table;
# a table belongs to the "(tools/lambdastore_*.cpp)" line above it.
flag_rows=$(
  awk '
    /^#/ { tool = "" }
    match($0, /\(tools\/lambdastore_[a-z]+\.cpp\)/) {
      tool = substr($0, RSTART + 1, RLENGTH - 2)
    }
    tool != "" && /^\| `--/ { split($0, cells, "|"); print tool, cells[2] }
  ' "$tuning"
)

# The reverse direction. A documented LO_* name must still appear as a
# quoted literal in the code, a documented --flag as a string literal
# ("name" or "--name") in the tool whose table lists it, and a field row
# of an options table as a member of the struct its section heading
# names, in the header named there (a dotted row such as `runtime.lanes`
# checks its first component).
stale=$(
  grep -oE 'LO_[A-Z0-9_]+' "$tuning" | sort -u | while read -r knob; do
    if ! grep -rqF --include='*.cpp' --include='*.cc' --include='*.h' \
      "\"$knob\"" "$root/src" "$root/bench" "$root/tools" "$root/tests"; then
      echo "STALE KNOB: $knob (docs/tuning.md documents it; no code reads it)"
    fi
  done
  echo "$flag_rows" | while read -r tool cell; do
    for flag in $(echo "$cell" | grep -oE -- '--[a-z0-9-]+'); do
      name="${flag#--}"
      if ! grep -qE "\"(--)?$name\"" "$root/$tool"; then
        echo "STALE FLAG: $flag (docs/tuning.md documents it; $tool does not parse it)"
      fi
    done
  done
  # "<header> <struct> <field>" for every field row under a
  # "## `ns::Struct` (src/<header>.h)" heading.
  awk '
    /^#/ { header = ""; type = "" }
    /^## `[a-z]+::[A-Za-z]+`.*\(src\/[a-z_\/]+\.h\)/ {
      match($0, /::[A-Za-z]+`/)
      type = substr($0, RSTART + 2, RLENGTH - 3)
      match($0, /\(src\/[a-z_\/]+\.h\)/)
      header = substr($0, RSTART + 1, RLENGTH - 2)
    }
    header != "" && /^\| `[a-z_][a-z0-9_.]*` \|/ {
      split($0, cells, "`")
      split(cells[2], parts, ".")
      print header, type, parts[1]
    }
  ' "$tuning" | while read -r header type field; do
    if ! awk -v t="$type" '
        $0 ~ "^struct " t " [{]" { on = 1 }
        on { print }
        on && /^};/ { exit }
      ' "$root/$header" | grep -qE "[[:space:]*&]$field( = |;| [{])"; then
      echo "STALE FIELD: $field (docs/tuning.md lists it under $type; $header does not declare it)"
    fi
  done
)
if [ -n "$stale" ]; then
  echo "$stale"
  exit 1
fi
echo "every knob, flag and field in docs/tuning.md exists in the code"

# The forward direction for flags: every flag a lambdastore_* tool
# parses, as ParseFlag(argv[i], "name", ...) or as
# strcmp(argv[i], "--name"), must be in that tool's table.
undocumented=$(
  for path in "$root"/tools/lambdastore_*.cpp; do
    tool="${path#"$root"/}"
    documented=$(echo "$flag_rows" | awk -v t="$tool" '$1 == t' |
      grep -oE -- '--[a-z0-9-]+' | sort -u)
    grep -oE 'ParseFlag\(argv\[i\], "[a-z0-9-]+"|strcmp\(argv\[i\], "--[a-z0-9-]+"' \
      "$path" | grep -oE '"(--)?[a-z0-9-]+"' | tr -d '"' | sed 's/^--//' |
      sort -u | while read -r name; do
        if ! echo "$documented" | grep -qxF -- "--$name"; then
          echo "UNDOCUMENTED FLAG: --$name ($tool parses it; add it to its table in docs/tuning.md)"
        fi
      done
  done
)
if [ -n "$undocumented" ]; then
  echo "$undocumented"
  exit 1
fi
echo "every flag a tool parses is documented in docs/tuning.md"

# Flags a spawner passes. A deleted server flag can survive as a
# "--name=" literal in a spawn line, where it fails only once that
# process exits with code 2, and a bench's spawn line may run in no test.
parsed=$(
  grep -hoE 'ParseFlag\(argv\[i\], "[a-z0-9-]+"' \
    "$root/tools/lambdastore_server.cpp" \
    "$root/tools/lambdastore_coordinator.cpp" |
    grep -oE '"[a-z0-9-]+"' | tr -d '"' | sort -u
)
unparsed=$(
  for path in "$root"/tests/*.cpp "$root"/bench/*.h "$root"/bench/*.cc \
    "$root"/bench/*.cpp; do
    grep -oE '"--[a-z0-9-]+=' "$path" | sed 's/^"--//; s/=$//' | sort -u |
      while read -r name; do
        if ! echo "$parsed" | grep -qxF -- "$name"; then
          echo "UNPARSED FLAG: ${path#"$root"/} -> --$name"
        fi
      done
  done
)
if [ -n "$unparsed" ]; then
  echo "$unparsed"
  exit 1
fi
echo "every flag a test or bench passes is parsed by a server tool"

# Metric drift: a metric name in the tuning guide must be one a node
# still publishes, i.e. the first argument of some RegisterExternal or
# RegisterCallback call under src/. Metric names are the backticked
# dotted lowercase names (`storage.stall_us`) of the "Reading the obs
# metrics" section.
registered=$(
  grep -rhoE --include='*.cc' --include='*.cpp' --include='*.h' \
    'Register(External|Callback)\("[^"]+"' "$root/src" |
    sed 's/^[^"]*"//; s/"$//' | sort -u
)
stale_metrics=$(
  awk '/^## / { on = ($0 ~ /^## Reading the obs metrics/) } on' "$tuning" |
    grep -oE '`[a-z][a-z0-9_]*\.[a-z0-9_.]+`' | tr -d '`' | sort -u |
    while read -r metric; do
      if ! echo "$registered" | grep -qxF -- "$metric"; then
        echo "STALE METRIC: $metric (docs/tuning.md reads it; nothing under src/ registers it)"
      fi
    done
)
if [ -n "$stale_metrics" ]; then
  echo "$stale_metrics"
  exit 1
fi
echo "every metric docs/tuning.md reads is registered under src/"
