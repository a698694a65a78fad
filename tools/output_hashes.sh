#!/usr/bin/env bash
# Print short hashes of two generated corpora, of their audits, of the
# outputs of ten small train + probe runs and of one small sweep.
#
#   tools/output_hashes.sh <repo-root> <workdir>
#
# Runs the checkout at <repo-root> (its src/ on PYTHONPATH) inside
# <workdir>.  The first row, `corpora`, holds the first 8 hex digits of
# the sha256 of the `gen` outputs binary.jsonl and ternary.jsonl; the
# second, `audit`, the same of each corpus's `audit --out` CSV, then of
# the binary corpus's with every `z` set to null, whose CSV holds only the
# overlap row.  Then one row per config.  Columns: config, then the first 8 hex digits of the
# sha256 of the saved model, its epoch log without the seconds column,
# the probe's metrics.csv and report.md, the train command's stdout and
# the model's `contributions` CSV over the test split (`-` for a
# single-modality model, which has none).  The row `sweep` holds the same
# of the two models of a static-faces (q 2) sweep over the grid 1,4 on the
# binary corpus, of their epoch logs without the seconds column and of
# selected.json.  The last row, `manifests`, holds the same of three
# manifests with their `started_utc` and `ended_utc` lines removed:
# `static-faces-file`'s train manifest, `unprotected`'s probe manifest and
# the sweep's, so a changed list of hashed inputs or written outputs shows.
# Every path a command sees is relative, and selected.json names the fixed
# out-dir `sweep`, so two checkouts that compute the same bytes print the
# same rows: run it on a parent and on a change to check that the change
# kept the outputs byte-identical.
#
# The row `probe-selection` holds the same of the whole dict that
# `evaluation.diagnose` returns (the selected penalty and strength, its
# validation AUC and its test AUC and accuracy) for the `unprotected` and
# the `supervised-ethnicity` model: metrics.csv alone does not show a
# changed choice that gives equal test figures.
#
# The corpus is acceptance criterion 11's generator config (n=160,
# seed 11), the training schedule criterion 11's with max_outer 2.  Each
# config runs `train --lambda 2` on its modality, then `probe` and, for a
# multimodal model, `contributions`: seven multimodal configs, then one
# per single modality.  The external face targets of `static-faces-file` are
# the first two coordinates of each candidate's face vector in the corpus.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <repo-root> <workdir>" >&2
    exit 2
fi
repo=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"

fairavi() { PYTHONPATH="$repo/src" python3 -m fairavi.cli "$@"; }
h8() { sha256sum | cut -c1-8; }

generator='"n": 160, "seq_len": {"language": 3, "audio": 4, "video": 3},
 "feat_dim": {"language": 3, "audio": 4, "video": 2},
 "skill_scale": 3.0, "noise_scale": 0.2, "seed": 11'
echo "{$generator}" > gen-binary.json
echo "{$generator, \"n_classes\": 3}" > gen-ternary.json
cat > train.json <<'JSON'
{"batch_size": 16, "max_epochs_pretrain": 2, "patience_pretrain": 2,
 "max_epochs_adv": 2, "patience_adv": 2, "max_outer": 2,
 "patience_outer": 2, "seed": 5}
JSON
for corpus in binary ternary; do
    fairavi gen --config "gen-$corpus.json" --out "$corpus.jsonl" > /dev/null
done
printf '%-22s %s %s\n' corpora "$(h8 < binary.jsonl)" "$(h8 < ternary.jsonl)"
python3 - binary.jsonl > no-z.jsonl <<'PY'
import json, sys
for line in open(sys.argv[1]):
    print(json.dumps({**json.loads(line), "z": None}))
PY
for corpus in binary ternary no-z; do
    fairavi audit --data "$corpus.jsonl" --out "audit-$corpus.csv" > /dev/null
done
printf '%-22s %s %s %s\n' audit \
    "$(h8 < audit-binary.csv)" "$(h8 < audit-ternary.csv)" "$(h8 < audit-no-z.csv)"
python3 - binary.jsonl > faces-q2.json <<'PY'
import json, sys
rows = (json.loads(line) for line in open(sys.argv[1]))
json.dump({r["video_id"]: r["face"][:2] for r in rows}, sys.stdout, sort_keys=True)
PY

# name, corpus, probe target, modality, train flags
while read -r name corpus target modality flags; do
    rm -rf "$name"
    mkdir "$name"
    (
        cd "$name"
        # shellcheck disable=SC2086  # flags is a word list
        fairavi train --data "../$corpus.jsonl" --modality "$modality" --lambda 2 \
            --config ../train.json --out model.json $flags > train.out
        fairavi probe --model model.json --data "../$corpus.jsonl" --target "$target" \
            --out-dir probe > /dev/null
        if [ "$modality" = multimodal ]; then
            fairavi contributions --model model.json --data "../$corpus.jsonl" \
                --out contributions.csv > /dev/null
        fi
        printf '%-22s %s %s %s %s %s %s\n' "$name" \
            "$(h8 < model.json)" \
            "$(sed 's/,[^,]*$//' model.json.log.csv | h8)" \
            "$(h8 < probe/metrics.csv)" \
            "$(h8 < probe/report.md)" \
            "$(h8 < train.out)" \
            "$(if [ "$modality" = multimodal ]; then h8 < contributions.csv; else echo -; fi)"
    )
done <<'CONFIGS'
unprotected            binary  gender    multimodal --variant unprotected
supervised-gender      binary  gender    multimodal --variant supervised-gender
static-faces-q2        binary  gender    multimodal --variant static-faces --face-dim 2
static-faces-q16       binary  gender    multimodal --variant static-faces --face-dim 16
static-faces-file      binary  gender    multimodal --variant static-faces --face-dim 2 --face-targets ../faces-q2.json
negative-sampling-k3   binary  gender    multimodal --variant negative-sampling --k 3
supervised-ethnicity   ternary ethnicity multimodal --variant supervised-ethnicity
language-supervised    binary  gender    language   --variant supervised-gender
audio-static-faces     binary  gender    audio      --variant static-faces --face-dim 2
video-negative-k3      binary  gender    video      --variant negative-sampling --k 3
CONFIGS

# model, corpus, target: print diagnose's dict for the probe report of model
selection() {
    PYTHONPATH="$repo/src" python3 - "$@" <<'PY'
import sys
from fairavi import cli, evaluation as ev
from fairavi.data import load_jsonl
from fairavi.model import load_model
model, corpus, target = sys.argv[1:]
picked = []
diagnose = ev.diagnose
ev.diagnose = lambda *args: picked.append(diagnose(*args)) or picked[-1]
cli.build_report(load_model(model), load_jsonl(corpus), target)
print(sorted((key, repr(value)) for key, value in picked[0].items()))
PY
}
printf '%-22s %s %s\n' probe-selection \
    "$(selection unprotected/model.json binary.jsonl gender | h8)" \
    "$(selection supervised-ethnicity/model.json ternary.jsonl ethnicity | h8)"

rm -rf sweep
fairavi sweep --data binary.jsonl --variant static-faces --face-dim 2 --grid 1,4 \
    --config train.json --out-dir sweep > /dev/null
printf '%-22s %s %s %s %s %s\n' sweep \
    "$(h8 < sweep/model_lambda1.json)" "$(h8 < sweep/model_lambda4.json)" \
    "$(sed 's/,[^,]*$//' sweep/model_lambda1.json.log.csv | h8)" \
    "$(sed 's/,[^,]*$//' sweep/model_lambda4.json.log.csv | h8)" \
    "$(h8 < sweep/selected.json)"

# a manifest without its two wall-clock lines
unstamped() { grep -v -e '"started_utc"' -e '"ended_utc"' "$1" | h8; }
printf '%-22s %s %s %s\n' manifests \
    "$(unstamped static-faces-file/model.json.manifest.json)" \
    "$(unstamped unprotected/probe/metrics.csv.manifest.json)" \
    "$(unstamped sweep/sweep.manifest.json)"
