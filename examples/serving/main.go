// Serving walks through the online half of the system: where AllPairs
// batch-joins a frozen dataset, vsmartjoin.Index answers similarity
// queries against a live one — entities stream in and out while lookups
// run, the workload of a proxy-detection or ad-fraud service that cannot
// afford to re-join millions of users on every request.
//
// The walkthrough builds an index over synthetic IP→cookie traffic, runs
// threshold and top-k queries, mutates the index under the queries'
// feet, and finishes with the pruning funnel the index stats expose. The
// same index is served over HTTP by cmd/vsmartjoind.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"vsmartjoin"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// A proxy farm: member IPs share a cookie pool, because the same
	// surfers egress through all of them. Plus unrelated background IPs.
	ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: "ruzicka"})
	if err != nil {
		log.Fatal(err)
	}
	pool := make([]string, 50)
	for i := range pool {
		pool[i] = fmt.Sprintf("cookie-farm-%d", i)
	}
	farm := func() map[string]uint32 {
		counts := map[string]uint32{}
		for _, c := range pool {
			if rng.Float64() < 0.8 {
				counts[c] = uint32(1 + rng.Intn(4))
			}
		}
		return counts
	}
	for member := 0; member < 5; member++ {
		if err := ix.Add(fmt.Sprintf("proxy-ip-%d", member), farm()); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		counts := map[string]uint32{}
		for j := 0; j < 1+rng.Intn(5); j++ {
			counts[fmt.Sprintf("cookie-web-%d", rng.Intn(800))] = uint32(1 + rng.Intn(3))
		}
		if err := ix.Add(fmt.Sprintf("surfer-ip-%d", i), counts); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("indexed %d live entities\n\n", ix.Len())

	// 1. Threshold query: which indexed IPs look like siblings of an
	// already-indexed proxy member?
	matches, err := ix.QueryEntity("proxy-ip-0", 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("entities similar to proxy-ip-0 at t=0.3: %d\n", len(matches))
	for _, m := range matches {
		fmt.Printf("  %-14s %.3f\n", m.Entity, m.Similarity)
	}

	// 2. Ad-hoc query: a fresh observation that is not (yet) indexed.
	// Unknown cookies are fine — they dilute the similarity but cannot
	// match, exactly as they would in the batch join.
	observed := farm()
	observed["cookie-never-seen"] = 9
	top := ix.QueryTopK(observed, 3)
	fmt.Printf("\ntop-3 for a fresh observation:\n")
	for _, m := range top {
		fmt.Printf("  %-14s %.3f\n", m.Entity, m.Similarity)
	}

	// 3. The index is live: retire an IP and re-run the same query.
	if _, err := ix.Remove(top[0].Entity); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter removing %s, top-3 becomes:\n", top[0].Entity)
	for _, m := range ix.QueryTopK(observed, 3) {
		fmt.Printf("  %-14s %.3f\n", m.Entity, m.Similarity)
	}

	// 4. The pruning funnel: posting-list probes → candidates → exact
	// verifications → results. The prefix and length filters are what
	// keep a query from touching all entities.
	s := ix.Stats()
	fmt.Printf("\nindex stats: %d entities, %d elements, %d postings\n",
		s.Entities, s.Elements, s.Postings)
	fmt.Printf("query funnel: %d probes -> %d candidates (%d length-pruned) -> %d verified -> %d results\n",
		s.Probes, s.Candidates, s.LengthPruned, s.Verified, s.Results)

	// 5. Durability: the same kind of index with a write-ahead log under
	// dir. Kill -9 at any point and reopening the
	// dir recovers every completed mutation — here we just drop the
	// handle without Close, the moral equivalent.
	dir, err := os.MkdirTemp("", "vsmartjoin-serving-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	opts := vsmartjoin.IndexOptions{Measure: "ruzicka", Dir: dir, SnapshotEvery: 64}
	func() { // scope the doomed handle: it "crashes" without Close
		durable, err := vsmartjoin.NewIndex(opts)
		if err != nil {
			log.Fatal(err)
		}
		for member := 0; member < 5; member++ {
			if err := durable.Add(fmt.Sprintf("proxy-ip-%d", member), farm()); err != nil {
				log.Fatal(err)
			}
		}
	}()

	recovered, err := vsmartjoin.NewIndex(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	fmt.Printf("\nafter simulated crash, recovered %d entities from %s\n", recovered.Len(), dir)

	// 6. Bulk bootstrap: cold-starting a corpus through Add writes one
	// WAL record per entity; BuildIndexFiles runs it through the batch
	// MapReduce machinery instead and writes the index's snapshot file
	// directly. The directory opens with nothing to replay and accepts
	// further durable mutations.
	corpus := vsmartjoin.NewDataset()
	for member := 0; member < 5; member++ {
		corpus.Add(fmt.Sprintf("proxy-ip-%d", member), farm())
	}
	for i := 0; i < 300; i++ {
		counts := map[string]uint32{}
		for j := 0; j < 1+rng.Intn(5); j++ {
			counts[fmt.Sprintf("cookie-web-%d", rng.Intn(800))] = uint32(1 + rng.Intn(3))
		}
		corpus.Add(fmt.Sprintf("surfer-ip-%d", i), counts)
	}
	bulkDir, err := os.MkdirTemp("", "vsmartjoin-bulk-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(bulkDir)
	bulkDir += "/idx" // BuildIndexFiles wants a fresh path
	bs, err := vsmartjoin.BuildIndexFiles(corpus, vsmartjoin.IndexOptions{Measure: "ruzicka", Dir: bulkDir})
	if err != nil {
		log.Fatal(err)
	}
	bulk, err := vsmartjoin.OpenIndex(vsmartjoin.IndexOptions{Dir: bulkDir})
	if err != nil {
		log.Fatal(err)
	}
	defer bulk.Close()
	fmt.Printf("\nbulk-built %d entities into one snapshot; opened %d at generation %d with no WAL replay\n",
		bs.Entities, bulk.Len(), bulk.Generation())

	fmt.Println("\nserve the same index over HTTP with: go run ./cmd/vsmartjoind -data-dir <dir>")
}
