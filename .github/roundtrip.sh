#!/usr/bin/env bash
# Round trip through the installed `hellycert` console script: generate,
# select, reduce and certify, and check the exit codes of the documented
# failures. Run from the repository root with the package installed:
#
#     bash .github/roundtrip.sh WORKDIR
#
# Every file it writes goes into WORKDIR.
set -eo pipefail
cd "$1"
hellycert --version
hellycert gen --kind slab --n 3 --count 12 --seed 1 --out inst.json
hellycert select-sym --in inst.json --out cert.json
hellycert certify --in inst.json --cert cert.json
# a basis with a repeated row is rejected (exit 2); a certificate
# without support_bases is malformed (exit 3)
python -c "import json; d = json.load(open('cert.json')); b = d['payload']['support_bases'][0]; b[0] = b[1]; json.dump(d, open('bad.json', 'w'))"
code=0; hellycert certify --in inst.json --cert bad.json || code=$?
test "$code" -eq 2
python -c "import json; d = json.load(open('cert.json')); del d['payload']['support_bases']; json.dump(d, open('bad.json', 'w'))"
code=0; hellycert certify --in inst.json --cert bad.json || code=$?
test "$code" -eq 3
# general path: s = 5 > 2n, so reduce drops a body
hellycert gen --kind halfspace --n 2 --count 40 --seed 102 --out hs.json
hellycert select-gen --in hs.json --out hs-cert.json
# the payload holds the eight general claims and nothing derived from
# them, and the document claims no eps (the slack is sparsify.EPS_SHIFT);
# a coefficient scaled by 1.5 is rejected (exit 2), and a certificate of
# format 0.7.0, which claimed the eps its general verdicts were judged
# at, is refused as input (exit 3)
python -c "import json; p = json.load(open('hs-cert.json'))['payload']; assert sorted(p) == ['coefficients', 'frame', 'frame_center', 'rho', 'sigma_rows', 'support_bases', 'support_directions', 'tau_rows'], sorted(p)"
python -c "import json; d = json.load(open('hs-cert.json')); assert 'eps' not in d, d['eps']"
python -c "import json; d = json.load(open('hs-cert.json')); d['payload']['coefficients'][0] *= 1.5; json.dump(d, open('bad.json', 'w'))"
code=0; hellycert certify --in hs.json --cert bad.json || code=$?
test "$code" -eq 2
python -c "import json; d = json.load(open('hs-cert.json')); d.update(version='0.7.0', eps=0.5); json.dump(d, open('old.json', 'w'))"
code=0; hellycert certify --in hs.json --cert old.json || code=$?
test "$code" -eq 3
# --eps is no longer an option: a usage error exits 3 and writes nothing
code=0; hellycert select-gen --in hs.json --out x.json --eps 0.5 || code=$?
test "$code" -eq 3
test ! -e x.json
hellycert reduce --in hs.json --cert hs-cert.json --out hs-reduced.json
hellycert certify --in hs.json --cert hs-reduced.json
# reduce reads its input through io.check, as certify does: diagnostics
# are information, so without them it still reduces (exit 0) to a
# certificate that certifies; a payload that is a list is malformed
# input (exit 3), reported on one line, not as a traceback
python -c "import json; d = json.load(open('hs-cert.json')); del d['diagnostics']; json.dump(d, open('nodiag.json', 'w'))"
hellycert reduce --in hs.json --cert nodiag.json --out nodiag-reduced.json
hellycert certify --in hs.json --cert nodiag-reduced.json
python -c "import json; d = json.load(open('hs-cert.json')); d['payload'] = []; json.dump(d, open('bad.json', 'w'))"
code=0; hellycert reduce --in hs.json --cert bad.json --out bad-reduced.json 2> bad-err.txt || code=$?
test "$code" -eq 3
test ! -e bad-reduced.json
grep -q "^InvalidInstance: certificate field 'payload' is not an object" bad-err.txt
if grep -q Traceback bad-err.txt; then exit 1; fi
# reduce enforces each step's growth limit itself and stores no verdict
# for it; check derives no such verdict, so one added to the file is
# rejected (exit 2)
python -c "import json; v = json.load(open('hs-reduced.json'))['verdicts']; assert 'reduction_growth' not in v, v"
python -c "import json; d = json.load(open('hs-reduced.json')); d['verdicts']['reduction_growth'] = True; json.dump(d, open('bad.json', 'w'))"
code=0; hellycert certify --in hs.json --cert bad.json || code=$?
test "$code" -eq 2
# a general d sets only the cardinality budget, so it must be a step of
# D_ESCALATION: d = 1e6, with every derived field recomputed by
# io.check as if 1e6 were a step (the forgery verifies then), exits 2
python -c "import json, hellycert.io as h; f = h.load_instance('hs.json'); d = json.load(open('hs-cert.json')); d['d'] = 1e6; h.D_ESCALATION = (1e6,); c = h.certificate_to_json(h.check(f, json.loads(json.dumps(d))), d['version']); d['diagnostics'].update(c['diagnostics']); d.update({k: c[k] for k in ('gamma_d', 'bound_claimed', 'alpha_measured', 'c_measured', 'verdicts')}); assert h.verify_certificate(f, d) == (True, []); json.dump(d, open('forged-d.json', 'w'))"
code=0; hellycert certify --in hs.json --cert forged-d.json || code=$?
test "$code" -eq 2
# an eps claim would widen the shift_norm, sum_b and sandwich thresholds:
# eps = 1e3, the coefficients scaled by 10 (which fails sum_b and the
# sandwich at the slack 0.5), and tau_rows, rho and every derived field
# recomputed as if the slack were 1e3 (the forgery verifies then), exits
# 2, since the slack is sparsify.EPS_SHIFT and not a claim
python - <<'EOF'
import json, math
import numpy as np
import hellycert.io as h, hellycert.sparsify as s
from hellycert.geometry import normalize_family
from hellycert.pipeline import caratheodory_express
f, d = h.load_instance("hs.json"), json.load(open("hs-cert.json"))
p, slack = d["payload"], 1e3
p["coefficients"] = [10 * b for b in p["coefficients"]]
d["eps"] = h.EPS_SHIFT = s.EPS_SHIFT = slack
norm = normalize_family(f, np.asarray(d["z"]))
framed = (norm.G - np.asarray(p["frame_center"])) @ np.asarray(p["frame"])
coef, vecs = np.asarray(p["coefficients"]), h._unit_rows(framed, p["sigma_rows"])
own = np.flatnonzero(np.isin(norm.owner, d["selected"]))
tau, rho = caratheodory_express(-(coef @ vecs) / coef.sum() / math.sqrt(slack * f.dim), h._unit_rows(framed, own.tolist()))
p.update(tau_rows=own[tau].tolist(), rho=rho.tolist())
c = h.certificate_to_json(h.check(f, json.loads(json.dumps(d))), d["version"])
d["diagnostics"].update(c["diagnostics"])
d.update({k: c[k] for k in ("gamma_d", "bound_claimed", "alpha_measured", "c_measured", "verdicts")})
assert h.verify_certificate(f, d) == (True, [])
json.dump(d, open("forged-eps.json", "w"))
EOF
code=0; hellycert certify --in hs.json --cert forged-eps.json || code=$?
test "$code" -eq 2
# n=3, where reduce prices its drops from 3-subsets of the rows:
# select-gen picks 7 bodies and reduce drops one (seed 26 is the first
# such seed of gen_halfspace_family(3, 10, seed))
hellycert gen --kind halfspace --n 3 --count 10 --seed 26 --out hs3.json
hellycert select-gen --in hs3.json --out hs3-cert.json
# hs3.json recenters, so its trial MVEE solves start from the accepted
# translate's weights; a second select-gen in a fresh process writes the
# same canonical certificate
python -c "import json; i = json.load(open('hs3-cert.json'))['diagnostics']['recenter_iters']; assert i >= 1, i"
hellycert select-gen --in hs3.json --out hs3-again.json
hellycert canonical --cert hs3-cert.json > hs3-canonical.txt
hellycert canonical --cert hs3-again.json > hs3-again-canonical.txt
cmp hs3-canonical.txt hs3-again-canonical.txt
hellycert reduce --in hs3.json --cert hs3-cert.json --out hs3-reduced.json
hellycert certify --in hs3.json --cert hs3-reduced.json
python -c "import json; s = [len(json.load(open(f))['selected']) for f in ('hs3-cert.json', 'hs3-reduced.json')]; assert s == [7, 6], s"
# s = 6 = 2n now: reduce hands the selection back as read through
# io.check, so the result certifies and its canonical bytes are the input's
hellycert reduce --in hs3.json --cert hs3-reduced.json --out hs3-rereduced.json
hellycert certify --in hs3.json --cert hs3-rereduced.json
hellycert canonical --cert hs3-reduced.json > hs3-reduced-canonical.txt
hellycert canonical --cert hs3-rereduced.json > hs3-rereduced-canonical.txt
cmp hs3-reduced-canonical.txt hs3-rereduced-canonical.txt
# n=4, where the drop pricing unranks C(27, 4) = 17 550 subsets in three
# chunks: select-gen picks 9 bodies (27 rows) and reduce drops one
python -c "import hellycert.io as h, hellycert.oracle as o; h.save_instance(o.gen_halfspace_family(4, 12, 45, rows_per_body=(3, 3)), 'hs4.json')"
hellycert select-gen --in hs4.json --out hs4-cert.json
timeout 60 hellycert reduce --in hs4.json --cert hs4-cert.json --out hs4-reduced.json
hellycert certify --in hs4.json --cert hs4-reduced.json
python -c "import json; s = [len(json.load(open(f))['selected']) for f in ('hs4-cert.json', 'hs4-reduced.json')]; assert s == [9, 8], s"
# the vertex oracle prices both diameters: the selected bodies' is at
# least the full family's
hellycert select-gen --in hs.json --out hs-exact.json --exact-oracle
python -c "import json, math; r = json.load(open('hs-exact.json'))['diameter']['ratio']; assert math.isfinite(r) and r >= 1.0, r"
# and a symmetric one: 32 slab rows in R^3 (the cap is 40), each beside
# its negation, so the oracle drops every basis holding such a twin pair
# by index before it solves the rest
hellycert gen --kind slab --n 3 --count 8 --seed 0 --out slab8.json
hellycert select-sym --in slab8.json --out slab8-exact.json --exact-oracle
hellycert certify --in slab8.json --cert slab8-exact.json
python -c "import json, math; r = json.load(open('slab8-exact.json'))['diameter']['ratio']; assert math.isfinite(r) and r >= 1.0, r"
# seed 53 selects 7 bodies with 41 rows, past the oracle's cap of 40 in
# R^3: reduce exits 4, writes nothing and names its stage
hellycert gen --kind halfspace --n 3 --count 10 --seed 53 --out hs53.json
hellycert select-gen --in hs53.json --out hs53-cert.json
code=0; hellycert reduce --in hs53.json --cert hs53-cert.json --out hs53-reduced.json 2> hs53-err.txt || code=$?
test "$code" -eq 4
test ! -e hs53-reduced.json
grep -q "OracleTooLarge: reduce: 41 constraints" hs53-err.txt
# general mode at n=6, where the John support is widest and the
# decomposition weights are the MVEE's own, unpolished
hellycert gen --kind halfspace --n 6 --count 60 --seed 0 --out gen6.json
hellycert select-gen --in gen6.json --out gen6-cert.json
hellycert certify --in gen6.json --cert gen6-cert.json
# a cold MVEE solve on ~1 000 generators, where its start matters
hellycert gen --kind slab --n 12 --count 300 --seed 1 --out big.json
hellycert select-sym --in big.json --out big-cert.json
hellycert certify --in big.json --cert big-cert.json
# 1 117 family directions at n=20: the dual bounds leave fewer
# than 100 of them to walk, and a walked one moved out with its
# basis is rejected (exit 2)
hellycert gen --kind slab --n 20 --count 600 --seed 1 --out huge.json
hellycert select-sym --in huge.json --out huge-cert.json
hellycert certify --in huge.json --cert huge-cert.json
python -c "import json; d = json.load(open('huge-cert.json')); w = d['payload']['support_directions']; assert len(w) < 100, len(w)"
python -c "import json; d = json.load(open('huge-cert.json')); p = d['payload']; j = len(p['support_directions']) - 1; del p['support_directions'][j], p['support_bases'][j]; json.dump(d, open('bad.json', 'w'))"
code=0; hellycert certify --in huge.json --cert bad.json || code=$?
test "$code" -eq 2
# a symmetric Q has a closed-form box: one basis per walked direction and
# no box bases; a certificate of format 0.4.0, which claimed a tol, is
# refused as input (exit 3)
python -c "import json; p = json.load(open('huge-cert.json'))['payload']; assert len(p['support_bases']) == len(p['support_directions']), p"
python -c "import json; d = json.load(open('huge-cert.json')); d.update(version='0.4.0', tol=1e-5); json.dump(d, open('old.json', 'w'))"
code=0; hellycert certify --in huge.json --cert old.json || code=$?
test "$code" -eq 3
# n=40, the ladder's largest symmetric size: every walk starts from its
# own crash vertex, so select-sym takes well under a second
hellycert gen --kind slab --n 40 --count 1200 --seed 0 --out sym40.json
timeout 30 hellycert select-sym --in sym40.json --out sym40-cert.json
hellycert certify --in sym40.json --cert sym40-cert.json
# n=24, where the hidden center's norm once emptied the offset
# range (seed 0 raised); a Newton try in the MVEE waits for half the
# gap at the last try, so select-gen takes seconds
hellycert gen --kind halfspace --n 24 --count 48 --seed 0 --out gen24.json
timeout 60 hellycert select-gen --in gen24.json --out gen24-cert.json
hellycert certify --in gen24.json --cert gen24-cert.json
# n=16: the Chebyshev center is one lifted walk, so select-gen takes
# seconds, not minutes
hellycert gen --kind halfspace --n 16 --count 32 --seed 0 --out gen16.json
timeout 60 hellycert select-gen --in gen16.json --out gen16-cert.json
hellycert certify --in gen16.json --cert gen16-cert.json
# n=30, the ladder's largest general size: boundedness from the closed-form
# witness, no box walk; the Chebyshev center is one lifted walk, so
# select-gen takes seconds (the dense simplex alone once took 26 s)
timeout 20 hellycert gen --kind halfspace --n 30 --count 60 --seed 0 --out gen30.json
timeout 60 hellycert select-gen --in gen30.json --out gen30-cert.json
hellycert certify --in gen30.json --cert gen30-cert.json
# a size below 1 fails at once (exit 3) instead of drawing forever
code=0; timeout 60 hellycert gen --n 0 --out zero.json || code=$?
test "$code" -eq 3
# select-sym refuses a general instance before any stage (exit 3)
code=0; hellycert select-sym --in hs.json --out wrong.json || code=$?
test "$code" -eq 3
# and a d that io.check would refuse after every stage (exit 3)
code=0; hellycert select-sym --in inst.json --out x.json --d inf || code=$?
test "$code" -eq 3
test ! -e x.json
# --tol is no longer an option: a usage error exits 3, not 2, which would
# read as a failed verdict
code=0; hellycert select-sym --in inst.json --out x.json --tol 1e-5 || code=$?
test "$code" -eq 3
test ! -e x.json
# 4 096 planar slabs (8 192 rows) certified by the covering test alone
timeout 60 hellycert gen --kind sharpness --n 2 --N 4096 --seed 0 --out sharp2.json
# every draw of 10 slabs in R^5 is disproved by a box centre: exit 2 at
# once, not after a covering budget per draw
code=0; timeout 10 hellycert gen --kind sharpness --n 5 --N 10 --seed 0 --out sharp5.json || code=$?
test "$code" -eq 2
