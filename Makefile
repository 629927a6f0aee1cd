GO ?= go

.PHONY: all build test race lint fmt vet vsmartlint staticcheck govulncheck bench-check allknn-smoke allpairs-smoke fuzz-smoke loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The one lint entry point: what CI gates on, in the order CI runs it.
# staticcheck and govulncheck are external tools the repo does not
# vendor; when absent locally they are skipped with a note (CI always
# runs them).
lint: fmt vet vsmartlint staticcheck govulncheck

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

vsmartlint:
	$(GO) run ./cmd/vsmartlint ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck -test ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

# The benchmark (BENCHMARK.json, benchmark/) is a module of its own, so
# `build`, `test` and `vet` above do not see it: vet it and run its own
# quick tests here, so that renaming something it names fails before
# the benchmark pipeline does. CI runs the same two commands. Running
# the benchmark itself is `bash benchmark/run.sh` (benchmark/README.md).
bench-check:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

# The line count CHANGES.md quotes for simplicity PRs: every non-test Go
# line outside the benchmark module. CI's test job echoes it.
loc:
	@find . -name '*.go' -not -path './.git/*' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

# Fuzz smoke: every Fuzz target for 10 s — the codec and segment
# decoders, the record batch's order contract, the WAL frame decoder,
# the router↔node hop's decoders, and the daemons' JSON wire codec held
# to encoding/json. A -fuzz run takes one target, so this
# walks them package:target by package:target. CI runs this in its test
# job.
FUZZ_TARGETS = \
	./internal/codec:FuzzReaderDecode ./internal/codec:FuzzRoundTrip \
	./internal/mrfs:FuzzSegmentRead ./internal/mrfs:FuzzBatchOrder \
	./internal/wal:FuzzWALFrameDecode \
	./internal/cluster:FuzzPeerRequest ./internal/cluster:FuzzPeerReply \
	./internal/httpd:FuzzRequestBody ./internal/httpd:FuzzAnswerString

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		$(GO) test -run='^$$' -fuzz="^$${t#*:}$$" -fuzztime=10s $${t%%:*}; \
	done

# Batch AllKNN smoke: run every entity's kNN query over a
# tiny generated trace and demand one neighbor line per entity — a PR
# cannot silently break the -knn CLI path. CI runs this in its test job.
allknn-smoke:
	@set -e; \
	for i in 1 2 3 4 5 6 7 8; do \
		printf "e$$i\tw$$(( i % 3 ))\t2\ne$$i\tw$$(( i % 5 ))\t1\n"; \
	done > /tmp/allknn.smoke.tsv; \
	$(GO) run ./cmd/vsmartjoin -measure jaccard -knn 3 \
		-in /tmp/allknn.smoke.tsv > /tmp/allknn.smoke.out; \
	lines=$$(wc -l < /tmp/allknn.smoke.out); \
	if [ "$$lines" -ne 24 ]; then \
		echo "allknn smoke: got $$lines neighbor lines, want 24 (8 entities x k=3)" >&2; exit 1; fi; \
	echo "allknn smoke: 8 entities x k=3 neighbors OK"

# Batch AllPairs smoke: a five-entity trace through vsmartjoin -stats.
# At t = 0.5 under Ruzicka it must print exactly the pairs a~b (0.75) and
# d~e (1), and the candidate funnel: 8 tuples emitted, and the 2 tuples
# pairing c ({x}) with a and b, whose sizes alone keep them below t,
# length-pruned. CI runs this in its test job.
allpairs-smoke:
	@set -e; \
	printf 'a\tx\t2\na\ty\t2\nb\tx\t2\nb\ty\t1\nc\tx\t1\nd\ty\t1\nd\tz\t1\ne\ty\t1\ne\tz\t1\n' \
		> /tmp/allpairs.smoke.tsv; \
	$(GO) run ./cmd/vsmartjoin -stats -in /tmp/allpairs.smoke.tsv \
		> /tmp/allpairs.smoke.out 2> /tmp/allpairs.smoke.err; \
	printf 'a\tb\t0.750000\nd\te\t1.000000\n' | cmp -s - /tmp/allpairs.smoke.out || { \
		echo "allpairs smoke: pairs differ from a~b 0.75, d~e 1:" >&2; cat /tmp/allpairs.smoke.out >&2; exit 1; }; \
	grep -q '^8 candidate tuples (2 length-pruned) -> 2 pairs;' /tmp/allpairs.smoke.err || { \
		echo "allpairs smoke: no funnel line '8 candidate tuples (2 length-pruned) -> 2 pairs':" >&2; \
		cat /tmp/allpairs.smoke.err >&2; exit 1; }; \
	echo "allpairs smoke: 2 pairs, 8 candidate tuples, 2 length-pruned OK"
