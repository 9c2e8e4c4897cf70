# One-command tier-1 verification: build + tests (including the trace
# determinism suite in test/test_obs.ml) + formatting check.

.PHONY: check build test fmt fmt-fix design-map no-globals bench bench-compare e12-smoke e13-smoke admission-smoke vopr-smoke blackbox-smoke repl-smoke perf-smoke clean

check: build test fmt design-map no-globals bench-compare e12-smoke e13-smoke admission-smoke vopr-smoke blackbox-smoke repl-smoke perf-smoke

build:
	dune build @all

test:
	dune runtest

# ocamlformat may be absent in minimal containers; skip (with a notice)
# rather than fail the whole check.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt || { echo "fmt check failed: run 'make fmt-fix'"; exit 1; }; \
	else \
		echo "ocamlformat not installed; skipping fmt check"; \
	fi

fmt-fix:
	dune fmt

bench:
	dune exec bench/main.exe

# DESIGN.md section 5 is the module map: it must name every lib/*/*.ml,
# and every .ml it lists under a lib/ directory must exist.
design-map:
	@ls lib/*/*.ml | awk ' \
	  NR == FNR { exists[$$0] = 1; next } \
	  /^## 5\./ { on = 1; next } \
	  /^## / { on = 0 } \
	  on && /^[a-z]+\// { dir = $$1 } \
	  on && dir ~ /^lib\// { \
	    s = $$0; \
	    while (match(s, /[a-z0-9_]+\.ml([^a-z]|$$)/)) { \
	      m = substr(s, RSTART, RLENGTH); sub(/\.ml.*$$/, ".ml", m); \
	      named[dir m] = 1; s = substr(s, RSTART + RLENGTH) } } \
	  END { \
	    for (f in exists) if (!(f in named)) { print "design-map: DESIGN.md section 5 omits " f; bad = 1 } \
	    for (f in named) if (!(f in exists)) { print "design-map: DESIGN.md section 5 names missing " f; bad = 1 } \
	    exit bad }' - DESIGN.md

# No process-global mutable state in lib/ or bench/: a binding to a
# ref, hash table, buffer or array at the top level of a module (or of
# a submodule) is shared by every run in the process, so runs could no
# longer be told apart by their inputs alone (bench/ threads its
# outputs through one Observer value instead).  A local binding ends
# its line with `in` and is allowed.
no-globals:
	@! find lib bench -name '*.ml' | sort | xargs grep -nE \
	  "^ *let +[a-z_][A-Za-z0-9_']* *(:[^=]*)?= *(ref|Hashtbl\.create|Buffer\.create|Array\.make)\b" \
	  | grep -vE "\bin *(\(\*.*)?$$" | grep . \
	  || { echo "no-globals: a lib/ or bench/ module binds process-global mutable state (above)"; exit 1; }

# The regression gate: rerun the seeded baseline suite (deterministic,
# well under a second) and require it to reproduce the committed
# BENCH_baseline.json byte for byte — the suite is seeded, so any
# difference is a change in simulated behaviour, shown as a diff.
bench-compare:
	dune exec bench/main.exe -- --baseline /tmp/bench-baseline.json > /dev/null
	@diff -u BENCH_baseline.json /tmp/bench-baseline.json \
	  || { echo "bench-compare: baseline suite no longer reproduces BENCH_baseline.json"; exit 1; }

# E12 head-to-head: all five design points (incl. the lin snapshot
# iterator) on quiet + churn workloads, every row judged by the
# parametric checker.  --e12 exits 1 unless every cell carries a
# verdict and every verdict conforms.
e12-smoke:
	dune exec bench/main.exe -- --e12

# Short open-loop saturation sweep: every design point must detect a
# finite knee (--e13 exits 1 otherwise, and curves.json must hold no
# null knee), and the curves JSON must be byte-identical across reruns
# (the determinism contract behind --curves-json).  The full-size sweep
# runs via `bench/main.exe -- --e13`; this scaled-down config keeps the
# smoke under a few seconds.
e13-smoke:
	dune exec bench/main.exe -- --e13 --load-clients 16 --load-duration 100 \
	  --curves-json curves.json
	@! grep -q '"knee":null' curves.json \
	  || { echo "e13-smoke: a design point has no knee in curves.json"; exit 1; }
	dune exec bench/main.exe -- --e13 --load-clients 16 --load-duration 100 \
	  --curves-json /tmp/e13-smoke-2.json > /dev/null
	@cmp -s curves.json /tmp/e13-smoke-2.json \
	  || { echo "e13-smoke: curves.json is not byte-identical across reruns"; exit 1; }

# E13b admission on/off ladder at smoke size: the run itself asserts the
# overload-survival contract (admission-on knee no earlier than off, zero
# sheds below the knee, p999 strictly lower at saturation) and exits
# nonzero when it breaks; the rerun must produce byte-identical curves,
# and the trace must render a non-empty overload anatomy (weakset_trace
# saturation --overload exits 3 when no segment holds a shed).
admission-smoke:
	dune exec bench/main.exe -- --e13 --admission --load-clients 16 --load-duration 100 \
	  --curves-json admission-curves.json --trace-jsonl /tmp/admission-smoke.jsonl
	dune exec bench/main.exe -- --e13 --admission --load-clients 16 --load-duration 100 \
	  --curves-json /tmp/admission-smoke-2.json > /dev/null
	@cmp -s admission-curves.json /tmp/admission-smoke-2.json \
	  || { echo "admission-smoke: admission-curves.json is not byte-identical across reruns"; exit 1; }
	dune exec bin/weakset_trace.exe -- saturation --overload /tmp/admission-smoke.jsonl > /dev/null

# Bounded VOPR swarm: 32 seed-derived scenarios (virtual-time budgets keep
# this well under a minute of wall clock), plus the mutation tests — the
# planted grow-only bug, the planted cache Inval drop and the planted
# membership-axiom flip in the parametric checker must each be caught
# within the same seed range.  Repro bundles for any failure land in
# vopr-bundles/ (CI uploads them).  The planted grow-only run writes its
# bundles to vopr-bundles/planted/, and replaying one of them must
# reproduce its digest and verdict: bundle write, read and replay in one
# pass.
vopr-smoke:
	rm -rf vopr-bundles && mkdir -p vopr-bundles/planted
	dune exec bin/weakset_vopr.exe -- run --seeds 0..32 --bundle-dir vopr-bundles --quiet
	dune exec bin/weakset_vopr.exe -- run --seeds 0..32 --planted-bug --no-shrink --quiet \
	  --bundle-dir vopr-bundles/planted; \
	  test $$? -eq 1 || { echo "vopr-smoke: planted bug was NOT detected"; exit 1; }
	dune exec bin/weakset_vopr.exe -- replay \
	  $$(ls vopr-bundles/planted/vopr-seed-*.json | head -n 1)
	dune exec bin/weakset_vopr.exe -- run --seeds 0..32 --planted-cache-bug --no-shrink --quiet; \
	  test $$? -eq 1 || { echo "vopr-smoke: planted cache bug was NOT detected"; exit 1; }
	dune exec bin/weakset_vopr.exe -- run --seeds 0..32 --planted-spec-bug --no-shrink --quiet; \
	  test $$? -eq 1 || { echo "vopr-smoke: planted spec bug was NOT detected"; exit 1; }

# Replication-group cluster scenarios: the full table (every row run
# twice, digests byte-identical — including the retry-storm and
# shed-under-partition overload rows) must pass; the planted view-change
# log drop must be caught by the oracle's commit-safety verdicts, and the
# planted shed-after-apply bug by its shed-divergence verdict.
# Repro bundles for any failing row land in repl-bundles/ (CI uploads
# them); re-run a single row with `scenarios --only NAME`.
repl-smoke:
	rm -rf repl-bundles && mkdir -p repl-bundles
	dune exec bin/weakset_vopr.exe -- scenarios --bundle-dir repl-bundles --quiet
	dune exec bin/weakset_vopr.exe -- scenarios --planted-commit-bug --quiet; \
	  test $$? -eq 1 || { echo "repl-smoke: planted commit bug was NOT detected"; exit 1; }
	dune exec bin/weakset_vopr.exe -- scenarios --only retry-storm --planted-shed-bug --quiet; \
	  test $$? -eq 1 || { echo "repl-smoke: planted shed bug was NOT detected"; exit 1; }

# Flight-recorder end-to-end: an armed planted-bug run must trigger at
# least one black-box dump (replayed from the failing seed), and
# rendering the dumps must resolve at least one tail exemplar back to a
# full span tree (weakset_trace blackbox exits 3 otherwise).
blackbox-smoke:
	rm -rf blackbox-dumps && mkdir -p blackbox-dumps
	dune exec bin/weakset_vopr.exe -- run --seeds 0..32 --planted-bug --no-shrink --quiet \
	  --blackbox-dir blackbox-dumps; \
	  test $$? -eq 1 || { echo "blackbox-smoke: planted bug was NOT detected"; exit 1; }
	@ls blackbox-dumps/blackbox-seed-*.json >/dev/null 2>&1 \
	  || { echo "blackbox-smoke: no black-box dump was written"; exit 1; }
	dune exec bin/weakset_trace.exe -- blackbox blackbox-dumps/blackbox-seed-*.json

# One-second runs of the routing-bound (wide), member-count-bound (deep),
# open-loop overload and replicated-directory (failover) benchmark
# workloads.  weakset_perf exits nonzero when one of its correctness
# checks fails (3: an iteration yielded the wrong elements, 4: a failover
# scenario row failed, 5: a replayed pass simulated differently, digests
# included, 6: a fiber crashed, 7: overload accounting does not add up),
# so a host-speed change that alters behaviour fails here.  overload runs
# optimistic iterations under balanced churn, so its iterators rebuild
# their candidate pools on every directory version change.  failover
# digests every row twice, so it also runs the binary event writer and
# the digest's chunk chain.
perf-smoke:
	dune exec perf/weakset_perf.exe -- --workload wide --seed 0 --seconds 1 > /dev/null
	dune exec perf/weakset_perf.exe -- --workload deep --seed 0 --seconds 1 > /dev/null
	dune exec perf/weakset_perf.exe -- --workload overload --seed 0 --seconds 1 > /dev/null
	dune exec perf/weakset_perf.exe -- --workload failover --seed 0 --seconds 1 > /dev/null

clean:
	dune clean
