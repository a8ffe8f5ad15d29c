#!/usr/bin/env bash
# End-to-end run of the installed `moserlab` console script.
# Usage: .github/console-script.sh DIR  (DIR receives every output; it must exist)
set -euo pipefail
tmp="$1"
repo="$(cd "$(dirname "$0")/.." && pwd)"

# rejects OUT CODE REASON ARGS...: the command must exit with CODE, name REASON
# on stderr and leave its --out unwritten
rejects() {
  local out="$1" want="$2" reason="$3"
  shift 3
  local code=0
  moserlab "$@" --out "$out" 2> "$tmp/stderr" || code=$?
  cat "$tmp/stderr" >&2
  test "$code" -eq "$want" && grep -qF -- "$reason" "$tmp/stderr" && test ! -e "$out"
}

moserlab counterexample --k-max 4 --out "$tmp/ce"
moserlab verify --out "$tmp/verify"
moserlab generate --kind superposition --grid-nr 96 --grid-ntheta 96 --out "$tmp/seq"
# a rerun of the generator writes the same files with the same bytes
moserlab generate --kind superposition --grid-nr 96 --grid-ntheta 96 --out "$tmp/seq-again"
test "$(ls "$tmp/seq")" = "$(ls "$tmp/seq-again")"
for f in "$tmp"/seq/*.json; do cmp "$f" "$tmp/seq-again/$(basename "$f")"; done
moserlab norms --input "$tmp/seq/member_0006.json" --out "$tmp/norms"
rejects "$tmp/rejected" 1 "third index must be finite" norms --input "$tmp/seq/member_0006.json" --indices "inf,inf,nan"
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["center"] = "0.5"; json.dump(d, open(sys.argv[2], "w"))' \
  "$tmp/seq/member_0006.json" "$tmp/string_center.json"
rejects "$tmp/rejected-center" 1 "center: '0.5' is not a real number" norms --input "$tmp/string_center.json"
rejects "$tmp/rejected-dec" 1 "term cap" decompose --manifest missing.json --max-terms -1
rejects "$tmp/rejected-flag" 2 "unrecognized arguments: --seed 3" counterexample --seed 3
echo '{"k_max": 2.5}' > "$tmp/k_max.json"
rejects "$tmp/rejected-gen" 1 "k_max: 2.5 is not an integer" generate --kind counterexample --params "$tmp/k_max.json"
echo '{"k_max": true}' > "$tmp/k_max_bool.json"
rejects "$tmp/rejected-bool" 1 "k_max: True is not an integer" generate --kind counterexample --params "$tmp/k_max_bool.json"
echo '{"k_list": [1], "terms": [], "grid": {"n_r": 96.0, "n_theta": 96}}' > "$tmp/float_grid.json"
echo '{"terms": [{"profile": {"n": 2, "nodes": [0, 1], "values": [0, 0]}, "j_track": [1], "zeta_track": [[0, 0]]}], "grid": {"n_r": 32, "n_theta": 32}}' > "$tmp/zero_profile.json"
rejects "$tmp/rejected-zero" 1 "superposition term 0: the profile has zero energy" \
  generate --kind superposition --params "$tmp/zero_profile.json"
echo '{"terms": [{"profile": {"n": 2, "nodes": [0, 1, 2], "values": [0, 0, 1]}, "j_track": [1], "zeta_track": [[false, false]]}], "grid": {"n_r": 32, "n_theta": 32}}' > "$tmp/bool_center.json"
rejects "$tmp/rejected-bool-center" 1 "zeta_track[0]: False is not a real number" \
  generate --kind superposition --params "$tmp/bool_center.json"
echo '{"s_values": ["0.3"], "centers": [[0, 0]], "grid": {"n_r": 32, "n_theta": 32}}' > "$tmp/string_s.json"
rejects "$tmp/rejected-moser" 1 "s_values[0]: '0.3' is not a real number" \
  generate --kind moser --params "$tmp/string_s.json"
echo '{"noise_energy": "0.01", "grid": {"n_r": 32, "n_theta": 32}}' > "$tmp/string_noise.json"
rejects "$tmp/rejected-noise" 1 "noise_energy: '0.01' is not a real number" \
  generate --kind superposition --params "$tmp/string_noise.json"
echo '{"terms": [{"profile": {"n": 2, "nodes": [0, 1, 2], "values": [0, 0, 1]}, "j_track": [1], "zeta_track": [[NaN, 0]]}], "grid": {"n_r": 32, "n_theta": 32}}' > "$tmp/nan_center.json"
rejects "$tmp/rejected-nan-center" 1 "centers must stay in the closed half-disc" \
  generate --kind superposition --params "$tmp/nan_center.json"
rejects "$tmp/rejected-seed" 1 "seed: -1 is negative" generate --kind superposition --seed -1
moserlab generate --kind superposition --params "$tmp/float_grid.json" --out "$tmp/float-grid"
moserlab generate --kind vanishing --grid-nr 96 --grid-ntheta 96 --out "$tmp/van"
moserlab norms --input "$tmp/van/member_0004.json" --out "$tmp/van-norms"
moserlab decompose --manifest "$tmp/seq/manifest.json" --out "$tmp/dec"
# a rerun on the same manifest writes the same bytes
moserlab decompose --manifest "$tmp/seq/manifest.json" --out "$tmp/dec-again"
cmp "$tmp/dec/decomposition.json" "$tmp/dec-again/decomposition.json"
moserlab moser-limit --l-values 5,10 --out "$tmp/ml"
cd "$tmp" && python "$repo/tests/test_import_graph.py"
