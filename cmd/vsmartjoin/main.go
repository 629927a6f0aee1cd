// Command vsmartjoin runs an exact all-pair similarity join over a TSV
// trace of entity–element observations, or bulk-builds a serving index
// from the same trace.
//
// Input format (stdin or -in file, gzip-decompressed on a .gz suffix),
// one observation per line:
//
//	entity<TAB>element<TAB>count
//
// The count column is optional (default 1). Output: one similar pair per
// line, "entityA<TAB>entityB<TAB>similarity", sorted.
//
// With -build-index the trace is not joined: it is written straight
// into a durable index directory — one snapshot file a vsmartjoind
// daemon (or vsmartjoin.OpenIndex) opens instantly, with no write-ahead
// log to replay. This is the cold-start path for large corpora: one
// file write instead of one logged Add per entity.
//
// With -knn k the trace is not threshold-joined either: AllKNN computes
// every entity's exact k nearest entities under the distance
// 1 − similarity, printed one neighbor per line as
// "entity<TAB>neighbor<TAB>distance", entities sorted, neighbors
// nearest first. Only -measure applies to it; the simulated-cluster
// flags configure only the threshold join.
//
// Examples:
//
//	vsmartjoin -measure ruzicka -t 0.5 -algorithm sharding -in trace.tsv
//	vsmartjoin -measure jaccard -knn 10 -in trace.tsv
//	vsmartjoin -measure ruzicka -build-index /var/lib/vsmartjoin -in trace.tsv.gz
//	vsmartjoind -measure ruzicka -data-dir /var/lib/vsmartjoin
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"vsmartjoin"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vsmartjoin: ")
	var (
		in         = flag.String("in", "", "input TSV file, .gz accepted (default stdin)")
		measure    = flag.String("measure", "ruzicka", "similarity measure: ruzicka, jaccard, dice, set-dice, cosine, set-cosine, vector-cosine, overlap")
		threshold  = flag.Float64("t", 0.5, "similarity threshold in [0,1]")
		algorithm  = flag.String("algorithm", "online-aggregation", "joining algorithm: online-aggregation, lookup, sharding")
		machines   = flag.Int("machines", 16, "simulated cluster size")
		memory     = flag.Int64("memory", 1<<30, "simulated per-machine memory budget in bytes")
		hadoop     = flag.Bool("hadoop", false, "Hadoop-compatible mode (no secondary keys)")
		shufbuf    = flag.Int64("shuffle-buffer", 0, "per-map-task shuffle buffer in bytes before spilling sorted runs to disk (0 = all in memory)")
		stopq      = flag.Int("stopq", 0, "drop elements shared by more than q entities (0 = keep all)")
		shardc     = flag.Int("shardc", 0, "Sharding split parameter C (0 = default)")
		comms      = flag.Bool("communities", false, "print connected components instead of pairs")
		showStats  = flag.Bool("stats", false, "print simulated cluster stats to stderr")
		knnK       = flag.Int("knn", 0, "compute each entity's k nearest neighbors (distance 1-similarity) instead of a threshold join")
		buildIndex = flag.String("build-index", "", "bulk-build a durable serving index into this directory instead of joining")
		partitions = flag.Int("build-cluster", 0, "with -build-index: carve the corpus into this many per-node index directories (node-000, ...) for a vsmartjoind cluster")
	)
	flag.Parse()
	if err := checkFlags(*threshold, *knnK, *shufbuf, *buildIndex, *partitions); err != nil {
		fmt.Fprintf(os.Stderr, "vsmartjoin: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	var d *vsmartjoin.Dataset
	var lines int
	var err error
	if *in != "" {
		d, lines, err = vsmartjoin.ReadTraceFile(*in)
	} else {
		d, lines, err = vsmartjoin.ReadTrace(os.Stdin)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *showStats {
		fmt.Fprintf(os.Stderr, "read %d observations, %d entities\n", lines, d.Len())
	}

	if *buildIndex != "" {
		opts := vsmartjoin.IndexOptions{Measure: *measure, Dir: *buildIndex}
		if *partitions > 0 {
			cs, err := vsmartjoin.BuildClusterFiles(d, opts, *partitions)
			if err != nil {
				log.Fatal(err)
			}
			for p, bs := range cs.Nodes {
				fmt.Fprintf(os.Stderr, "built %s/%s: %d entities\n",
					*buildIndex, vsmartjoin.NodeDirName(p), bs.Entities)
			}
			return
		}
		bs, err := vsmartjoin.BuildIndexFiles(d, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "built %s: %d entities\n", *buildIndex, bs.Entities)
		return
	}

	if *knnK > 0 {
		res, err := vsmartjoin.AllKNN(d, *knnK, vsmartjoin.Options{Measure: *measure})
		if err != nil {
			log.Fatal(err)
		}
		entities := make([]string, 0, len(res.Neighbors))
		for name := range res.Neighbors {
			entities = append(entities, name)
		}
		sort.Strings(entities)
		w := bufio.NewWriter(os.Stdout)
		for _, name := range entities {
			for _, n := range res.Neighbors[name] {
				fmt.Fprintf(w, "%s\t%s\t%.6f\n", name, n.Entity, n.Distance)
			}
		}
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		if *showStats {
			fmt.Fprintf(os.Stderr, "%d entities; wall %.0fms\n", len(res.Neighbors), res.Stats.WallSeconds*1e3)
		}
		return
	}

	res, err := vsmartjoin.AllPairs(d, vsmartjoin.Options{
		Measure:            *measure,
		Threshold:          *threshold,
		Algorithm:          *algorithm,
		Machines:           *machines,
		MemPerMachine:      *memory,
		ShuffleBufferBytes: *shufbuf,
		HadoopCompat:       *hadoop,
		StopWordQ:          *stopq,
		ShardC:             *shardc,
	})
	if err != nil {
		log.Fatal(err)
	}

	w := bufio.NewWriter(os.Stdout)
	if *comms {
		for i, c := range res.Communities() {
			fmt.Fprintf(w, "community-%d\t%s\n", i+1, strings.Join(c, ","))
		}
	} else {
		for _, p := range res.Pairs {
			fmt.Fprintf(w, "%s\t%s\t%.6f\n", p.A, p.B, p.Similarity)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if *showStats {
		fmt.Fprintf(os.Stderr, "%d candidate tuples (%d length-pruned) -> %d pairs; %d MapReduce jobs; simulated %.1fs (joining %.1fs, similarity %.1fs), wall %.0fms; spilled %dB\n",
			res.Stats.CandidateTuples, res.Stats.LengthPruned, len(res.Pairs), res.Stats.Jobs, res.Stats.TotalSeconds,
			res.Stats.JoiningSeconds, res.Stats.SimilaritySeconds, res.Stats.WallSeconds*1e3, res.Stats.SpilledBytes)
		// Each job's simulated seconds beside its real milliseconds and
		// their split over map, shuffle and reduce.
		for _, j := range res.Stats.JobTimes {
			fmt.Fprintf(os.Stderr, "  %s\n", j)
		}
	}
}

// checkFlags rejects flag combinations the command would otherwise
// ignore without a word: each one is a usage error, not a silent join.
func checkFlags(threshold float64, knn int, shuffleBuffer int64, buildIndex string, partitions int) error {
	switch {
	case threshold < 0:
		// The library treats negative thresholds as "use the default"; the
		// flag already has an explicit default, so a negative is a typo.
		return fmt.Errorf("threshold %v outside [0, 1]", threshold)
	case knn < 0:
		return fmt.Errorf("-knn %d: k must be positive", knn)
	case partitions < 0:
		return fmt.Errorf("-build-cluster %d: the partition count must be positive", partitions)
	case partitions > 0 && buildIndex == "":
		return fmt.Errorf("-build-cluster %d needs -build-index to name the directory to carve into", partitions)
	case knn > 0 && buildIndex != "":
		return errors.New("-knn and -build-index are exclusive: a run either computes neighbors or builds an index")
	case shuffleBuffer != 0 && buildIndex != "":
		return errors.New("-shuffle-buffer configures the join's shuffle; -build-index writes its snapshot directly and has none")
	}
	return nil
}
