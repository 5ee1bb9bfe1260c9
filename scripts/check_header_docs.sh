#!/usr/bin/env bash
# Documentation gate for the public surface: every header in src/api/,
# src/serve/, src/lutboost/, and src/vq/ (the serving data plane's whole
# dependency chain), plus src/nn/simd_math.h (the in-repo tanh/exp the
# serving GELU and softmax stages run), must carry a Doxygen file-level comment (@file) and at
# least one Doxygen block, so the facade docs cannot rot silently. Run
# from the repo root (CI and ctest both do).
set -u

HEADERS="src/api/*.h src/serve/*.h src/lutboost/*.h src/vq/*.h src/nn/simd_math.h"

fail=0

# The front-door surface is the newest public layer; assert the headers
# exist by name so a rename or move cannot silently drop them out of the
# globbed set (the glob would just stop matching, and the gate would pass
# while checking nothing).
# kernels_simd.h and table_arena.h carry the quantized encode plane
# (the SIMD encode tiers + the INT8 encode bank) — kernel-layer headers,
# but public surface the serve planner documents against.
for required in src/serve/frontdoor.h src/serve/registry.h \
                src/serve/engine.h src/serve/frozen_model.h \
                src/serve/stage.h src/serve/stage_transformer.h \
                src/serve/plan.h src/serve/autotune.h \
                src/lutboost/kernels.h src/lutboost/kernels_simd.h \
                src/lutboost/table_arena.h; do
    if [ ! -f "$required" ]; then
        echo "error: required public header $required is missing"
        fail=1
    fi
done
for header in $HEADERS; do
    if ! grep -q '@file' "$header"; then
        echo "error: $header is missing a Doxygen file-level comment (@file)"
        fail=1
    fi
    if ! grep -q '/\*\*' "$header"; then
        echo "error: $header has no Doxygen comment blocks (/** ... */)"
        fail=1
    fi
done

# Every public class/struct in those headers must have a doc comment on an
# adjacent preceding line (allowing template<> between them).
while IFS=: read -r file line _; do
    ok=0
    for back in 1 2 3; do
        prev=$((line - back))
        [ "$prev" -lt 1 ] && break
        text=$(sed -n "${prev}p" "$file")
        case "$text" in
          *'*/'*|*'///'*) ok=1; break ;;
          *template*|*'@}'*) continue ;;
          *) break ;;
        esac
    done
    if [ "$ok" -eq 0 ]; then
        echo "error: $file:$line public type lacks a doc comment"
        fail=1
    fi
done < <(grep -nE '^(class|struct|enum class) [A-Za-z]' $HEADERS)

if [ "$fail" -ne 0 ]; then
    echo "header documentation check FAILED"
    exit 1
fi
echo "header documentation check passed"
