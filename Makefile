# One-command tier-1 verification: build + tests (including the trace
# determinism suite in test/test_obs.ml) + formatting check.

.PHONY: check build test fmt fmt-fix bench bench-compare e12-smoke e13-smoke admission-smoke vopr-smoke blackbox-smoke repl-smoke perf-smoke clean

check: build test fmt bench-compare e12-smoke e13-smoke admission-smoke vopr-smoke blackbox-smoke repl-smoke perf-smoke

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

# The regression gate: rerun the seeded baseline suite (deterministic,
# well under a second), compare it with the committed BENCH_baseline.json
# (every tracked metric within tolerance), and require the two files to
# be byte-identical — the suite is seeded, so any difference is a change
# in simulated behaviour.
bench-compare:
	dune exec bench/main.exe -- --baseline /tmp/bench-baseline.json > /dev/null
	dune exec bench/main.exe -- --compare BENCH_baseline.json /tmp/bench-baseline.json
	@cmp BENCH_baseline.json /tmp/bench-baseline.json \
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
# and the trace must render a non-empty overload anatomy (sheds by
# class).
admission-smoke:
	dune exec bench/main.exe -- --e13 --admission --load-clients 16 --load-duration 100 \
	  --curves-json admission-curves.json --trace-jsonl /tmp/admission-smoke.jsonl
	dune exec bench/main.exe -- --e13 --admission --load-clients 16 --load-duration 100 \
	  --curves-json /tmp/admission-smoke-2.json > /dev/null
	@cmp -s admission-curves.json /tmp/admission-smoke-2.json \
	  || { echo "admission-smoke: admission-curves.json is not byte-identical across reruns"; exit 1; }
	dune exec bin/weakset_trace.exe -- saturation --overload /tmp/admission-smoke.jsonl \
	  | tee /tmp/admission-smoke-trace.out > /dev/null
	@grep -q "server sheds by op class" /tmp/admission-smoke-trace.out \
	  || { echo "admission-smoke: trace rendered no shed anatomy"; exit 1; }

# Bounded VOPR swarm: 32 seed-derived scenarios (virtual-time budgets keep
# this well under a minute of wall clock), plus the mutation tests — the
# planted grow-only bug, the planted cache Inval drop and the planted
# membership-axiom flip in the parametric checker must each be caught
# within the same seed range.  Repro bundles for any failure land in
# vopr-bundles/ (CI uploads them).
vopr-smoke:
	rm -rf vopr-bundles && mkdir -p vopr-bundles
	dune exec bin/weakset_vopr.exe -- run --seeds 0..32 --bundle-dir vopr-bundles --quiet
	dune exec bin/weakset_vopr.exe -- run --seeds 0..32 --planted-bug --no-shrink --quiet; \
	  test $$? -eq 1 || { echo "vopr-smoke: planted bug was NOT detected"; exit 1; }
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
# least one black-box dump, and rendering the dumps must resolve at
# least one tail exemplar back to a full span tree.
blackbox-smoke:
	rm -rf blackbox-dumps && mkdir -p blackbox-dumps
	dune exec bin/weakset_vopr.exe -- run --seeds 0..32 --planted-bug --no-shrink --quiet \
	  --blackbox-dir blackbox-dumps; \
	  test $$? -eq 1 || { echo "blackbox-smoke: planted bug was NOT detected"; exit 1; }
	@ls blackbox-dumps/blackbox-seed-*.json >/dev/null 2>&1 \
	  || { echo "blackbox-smoke: no black-box dump was written"; exit 1; }
	dune exec bin/weakset_trace.exe -- blackbox blackbox-dumps/blackbox-seed-*.json \
	  | tee /tmp/blackbox-smoke.out
	@grep -q "exemplar span tree" /tmp/blackbox-smoke.out \
	  || { echo "blackbox-smoke: no exemplar resolved to a span tree"; exit 1; }

# One-second runs of the routing-bound (wide), member-count-bound (deep),
# open-loop overload and replicated-directory (failover) benchmark
# workloads.  weakset_perf exits nonzero when one of its correctness
# checks fails (3: an iteration yielded the wrong elements, 4: a failover
# scenario row failed, 5: a replayed pass simulated differently, digests
# included, 6: a fiber crashed, 7: overload accounting does not add up),
# so a host-speed change that alters behaviour fails here.  overload runs
# optimistic iterations under balanced churn, so its iterators rebuild
# their candidate pools on every directory version change.  failover
# attaches a digest to every row, so it also runs the canonical event
# writer.
perf-smoke:
	dune exec perf/weakset_perf.exe -- --workload wide --seed 0 --seconds 1 > /dev/null
	dune exec perf/weakset_perf.exe -- --workload deep --seed 0 --seconds 1 > /dev/null
	dune exec perf/weakset_perf.exe -- --workload overload --seed 0 --seconds 1 > /dev/null
	dune exec perf/weakset_perf.exe -- --workload failover --seed 0 --seconds 1 > /dev/null

clean:
	dune clean
