// Package knn implements the batch all-k-nearest-neighbors workload:
// for every entity of a dataset, its exact k nearest entities under the
// distance 1 − Sim, as a three-job MapReduce pipeline in the
// partition-and-refine style.
//
// Unlike the threshold join, kNN has no similarity cut-off to prune
// with — an entity's k-th neighbor may share nothing with it — so the
// pipeline derives its own per-entity cut-off instead:
//
//  1. knn-group partitions entities into cardinality ranges (the pivot
//     groups). The split points are fixed powers of two, so the same
//     dataset always yields the same groups on every cluster shape.
//  2. knn-bound runs the exact quadratic kernel within each group
//     (KNNBrute, kernel.go). Each entity leaves with its local
//     k-nearest list and the upper bound ub = the local k-th distance (1
//     when the group holds fewer than k others — still a valid bound,
//     since every distance is at most 1).
//  3. knn-refine re-keys by entity and, per entity, folds in exactly
//     the foreign groups that can still matter: group g is probed only
//     when its distance lower bound distLB(e, g) ≤ ub. The lower bound
//     comes from the group's UniStats bounding box — SimUpperBound is
//     coordinate-wise unimodal in its second argument with the maximum
//     at b = a, so clamping e's own stats into the box maximizes the
//     bound over everything the group could contain. Every true
//     neighbor survives: a member at distance under the current k-th
//     distance has sim above the clamped bound's complement, so its
//     group passes the check. The reducers emit exact k-nearest lists
//     in the canonical (distance asc, ID asc) order.
//
// The online counterpart (Index.QueryKNN) answers the same question
// for one query at a time; the differential suite gates the two
// against each other.
package knn

import (
	"fmt"
	"math/bits"
	"sort"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// Counter names reported by the pipeline.
const (
	// CounterGroupsProbed counts foreign groups whose members were folded
	// into some entity's list; CounterGroupsPruned counts foreign groups
	// skipped by the distance lower bound.
	CounterGroupsProbed = "knn:groups_probed"
	CounterGroupsPruned = "knn:groups_pruned"
)

// boundEps absorbs float drift when comparing a distance lower bound
// against an upper bound, erring toward probing (never toward losing a
// neighbor) — the same tolerance discipline as the online index.
const boundEps = 1e-9

// Config parameterizes AllKNN.
type Config struct {
	// Measure is the similarity measure defining the distance 1 − Sim.
	Measure similarity.Measure
	// K is the neighbor count per entity.
	K int
	// NumReducers sets the reduce task count of every job (defaults to
	// the cluster's machine count).
	NumReducers int
}

// Result is the outcome of AllKNN.
type Result struct {
	// Lists maps each entity to its exact k nearest neighbors, sorted by
	// distance ascending, ID ascending on ties. A list is shorter than k
	// only when the dataset holds fewer than k other entities.
	Lists map[multiset.ID][]Neighbor
	// Stats is the simulated cost of the three jobs.
	Stats mr.PipelineStats
}

// AllKNN computes every entity's exact k nearest neighbors under the
// distance 1 − Sim. Non-overlapping entities sit at distance exactly 1
// and legitimately appear in lists when fewer than k entities overlap.
func AllKNN(cluster mr.ClusterConfig, input *mrfs.Dataset, cfg Config) (*Result, error) {
	if cfg.Measure == nil {
		return nil, fmt.Errorf("knn: no measure")
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("knn: k must be positive, got %d", cfg.K)
	}
	res := &Result{Lists: make(map[multiset.ID][]Neighbor)}

	groups, gstats, err := mr.Run(cluster, mr.Job{
		Name:        "knn-group",
		Input:       input,
		Mapper:      mr.IdentityMapper{},
		Reducer:     &groupReducer{},
		NumReducers: cfg.NumReducers,
		OutputName:  "knn-groups",
	})
	if err != nil {
		return nil, err
	}
	res.Stats.Add(gstats)

	probes, bstats, err := mr.Run(cluster, mr.Job{
		Name:        "knn-bound",
		Input:       groups,
		Mapper:      mr.IdentityMapper{},
		Reducer:     &boundReducer{m: cfg.Measure, k: cfg.K},
		NumReducers: cfg.NumReducers,
		OutputName:  "knn-probes",
	})
	if err != nil {
		return nil, err
	}
	res.Stats.Add(bstats)

	out, rstats, err := mr.Run(cluster, mr.Job{
		Name:        "knn-refine",
		Input:       probes,
		Mapper:      mr.IdentityMapper{},
		Reducer:     &refineReducer{m: cfg.Measure, k: cfg.K},
		NumReducers: cfg.NumReducers,
		// The refiner folds candidate groups in from the side table; the
		// shuffled probes only carry each entity's bound and local list.
		SideInputs:         map[string]*mrfs.Dataset{"knn-groups": groups},
		SideInputsAtReduce: true,
		OutputName:         "knn-lists",
	})
	if err != nil {
		return nil, err
	}
	res.Stats.Add(rstats)

	for _, rec := range out.All() {
		id, err := records.DecodeRawKey(rec.Key)
		if err != nil {
			return nil, err
		}
		list, err := decodeList(rec.Val)
		if err != nil {
			return nil, err
		}
		res.Lists[id] = list
	}
	return res, nil
}

// groupOf assigns a multiset cardinality to its pivot group: the
// power-of-two range it falls in. Fixed split points keep the grouping
// a pure function of each entity alone — no global pass, no dependence
// on cluster shape — while bounding the cardinality spread within a
// group to 2×, which is what makes the group boxes tight enough to
// prune with.
func groupOf(card uint64) uint64 { return uint64(bits.Len64(card)) }

func decodeGroupKey(key []byte) (uint64, error) {
	r := codec.NewReader(key)
	g := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("knn: bad group key: %w", err)
	}
	return g, nil
}

// Capsule value: the full multiset of one entity, carried through the
// group and probe records.
func putCapsule(b *codec.Buffer, m multiset.Multiset) {
	b.PutUvarint(uint64(m.ID))
	b.PutUvarint(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b.PutUvarint(uint64(e.Elem))
		b.PutUint32(e.Count)
	}
}

func readCapsule(r *codec.Reader) multiset.Multiset {
	id := multiset.ID(r.Uvarint())
	n := int(r.Uvarint())
	entries := make([]multiset.Entry, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		entries = append(entries, multiset.Entry{Elem: multiset.Elem(r.Uvarint()), Count: r.Uint32()})
	}
	return multiset.Multiset{ID: id, Entries: entries}
}

func putList(b *codec.Buffer, list []Neighbor) {
	b.PutUvarint(uint64(len(list)))
	for _, n := range list {
		b.PutUvarint(uint64(n.ID))
		b.PutFloat64(n.Dist)
	}
}

func readList(r *codec.Reader) []Neighbor {
	n := int(r.Uvarint())
	list := make([]Neighbor, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		list = append(list, Neighbor{ID: multiset.ID(r.Uvarint()), Dist: r.Float64()})
	}
	return list
}

func decodeList(val []byte) ([]Neighbor, error) {
	r := codec.NewReader(val)
	list := readList(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("knn: bad neighbor list: %w", err)
	}
	return list, nil
}

// groupReducer assembles each entity's raw ⟨Mi, mi,k⟩ tuples back into
// a multiset and re-keys it by pivot group.
type groupReducer struct{}

func (groupReducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	id, err := records.DecodeRawKey(key)
	if err != nil {
		return err
	}
	var entries []multiset.Entry
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		e, err := records.DecodeRawVal(v.Val)
		if err != nil {
			return err
		}
		entries = append(entries, e)
	}
	m := multiset.New(id, entries)
	groupKey, capsule := ctx.Scratch()
	groupKey.PutUvarint(groupOf(similarity.UniOf(m).Card))
	putCapsule(capsule, m)
	emit.Emit(groupKey.Bytes(), capsule.Bytes())
	return nil
}

// boundReducer runs the exact quadratic kernel within one pivot group
// and emits, per member, a probe record: the member's capsule, its
// local k-nearest list, and the upper bound the refine stage prunes
// with.
type boundReducer struct {
	m similarity.Measure
	k int
}

func (r *boundReducer) Reduce(ctx *mr.TaskContext, _ []byte, values *mr.Values, emit mr.Emitter) error {
	var members []multiset.Multiset
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		cr := codec.NewReader(v.Val)
		m := readCapsule(cr)
		if err := cr.Err(); err != nil {
			return fmt.Errorf("knn: bad capsule: %w", err)
		}
		members = append(members, m)
	}
	// Sort by ID so the kernel's pair order — and with it the simulated
	// compute charge — is independent of shuffle arrival order. The lists
	// themselves are order-independent (bounded insertion under a strict
	// total order keeps exactly the k best).
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	lists := KNNBrute(members, r.m, r.k)
	for i := range members {
		ctx.ChargeCompute(int64(len(members) / 16))
		ub := 1.0
		if len(lists[i]) == r.k {
			ub = lists[i][r.k-1].Dist
		}
		key, probe := ctx.Scratch()
		records.PutRawKey(key, members[i].ID)
		probe.PutFloat64(ub)
		putList(probe, lists[i])
		putCapsule(probe, members[i])
		emit.Emit(key.Bytes(), probe.Bytes())
	}
	return nil
}

// groupBox is the UniStats bounding box of one pivot group's members.
type groupBox struct {
	lo, hi similarity.UniStats
}

// clampInto clamps each coordinate of u into the box. SimUpperBound is
// coordinate-wise unimodal in its second argument with the maximum at
// b = a (every supported measure bounds through min/max or emptiness
// tests of one coordinate), so the clamped point maximizes the bound
// over the whole box: SimUpperBound(m, u, clamp) ≥ SimUpperBound(m, u,
// v) ≥ Sim(u, v) for every member v of the group.
func clampInto(u similarity.UniStats, box groupBox) similarity.UniStats {
	return similarity.UniStats{
		Card:  clamp(u.Card, box.lo.Card, box.hi.Card),
		UCard: clamp(u.UCard, box.lo.UCard, box.hi.UCard),
		SumSq: clamp(u.SumSq, box.lo.SumSq, box.hi.SumSq),
	}
}

func clamp(v, lo, hi uint64) uint64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// refineReducer folds each entity's local list together with the
// members of every foreign group the bound cannot exclude, emitting the
// exact k-nearest list.
type refineReducer struct {
	m similarity.Measure
	k int

	members  map[uint64][]multiset.Multiset
	boxes    map[uint64]groupBox
	groupIDs []uint64 // ascending, for a deterministic probe order
}

func (r *refineReducer) Setup(ctx *mr.TaskContext) error {
	side, ok := ctx.Side["knn-groups"]
	if !ok {
		return fmt.Errorf("knn: refine reducer missing group side input")
	}
	r.members = make(map[uint64][]multiset.Multiset)
	r.boxes = make(map[uint64]groupBox)
	for _, rec := range side.All() {
		g, err := decodeGroupKey(rec.Key)
		if err != nil {
			return err
		}
		cr := codec.NewReader(rec.Val)
		m := readCapsule(cr)
		if err := cr.Err(); err != nil {
			return fmt.Errorf("knn: bad capsule: %w", err)
		}
		r.members[g] = append(r.members[g], m)
		uni := similarity.UniOf(m)
		box, seen := r.boxes[g]
		if !seen {
			box = groupBox{lo: uni, hi: uni}
		} else {
			box.lo.Card = min(box.lo.Card, uni.Card)
			box.lo.UCard = min(box.lo.UCard, uni.UCard)
			box.lo.SumSq = min(box.lo.SumSq, uni.SumSq)
			box.hi.Card = max(box.hi.Card, uni.Card)
			box.hi.UCard = max(box.hi.UCard, uni.UCard)
			box.hi.SumSq = max(box.hi.SumSq, uni.SumSq)
		}
		r.boxes[g] = box
	}
	r.groupIDs = r.groupIDs[:0]
	for g, ms := range r.members {
		sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
		r.groupIDs = append(r.groupIDs, g)
	}
	sort.Slice(r.groupIDs, func(i, j int) bool { return r.groupIDs[i] < r.groupIDs[j] })
	return nil
}

func (r *refineReducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	v, ok := values.Next()
	if !ok {
		return nil
	}
	pr := codec.NewReader(v.Val)
	ub := pr.Float64()
	acc := readList(pr)
	q := readCapsule(pr)
	if err := pr.Err(); err != nil {
		return fmt.Errorf("knn: bad probe: %w", err)
	}
	qUni := similarity.UniOf(q)
	home := groupOf(qUni.Card)
	for _, g := range r.groupIDs {
		if g == home {
			continue // the local kernel already covered it exactly
		}
		distLB := 1 - similarity.SimUpperBound(r.m, qUni, clampInto(qUni, r.boxes[g]))
		if distLB > ub+boundEps {
			ctx.Counters.Inc(CounterGroupsPruned)
			continue
		}
		ctx.Counters.Inc(CounterGroupsProbed)
		ctx.ChargeCompute(int64(len(r.members[g]) / 16))
		acc = mergeLists(acc, KNNAgainst(q, r.members[g], r.m, r.k), r.k)
		// The k-th distance can only shrink as groups fold in; tightening
		// the bound keeps later groups prunable against the best-so-far.
		if len(acc) == r.k && acc[r.k-1].Dist < ub {
			ub = acc[r.k-1].Dist
		}
	}
	_, list := ctx.Scratch()
	putList(list, acc)
	emit.Emit(key, list.Bytes())
	return nil
}

// mergeLists merges two canonically sorted neighbor lists into the k
// best. The inputs come from disjoint pivot groups, so no ID appears in
// both.
func mergeLists(a, b []Neighbor, k int) []Neighbor {
	if len(b) == 0 {
		return a
	}
	out := make([]Neighbor, 0, min(len(a)+len(b), k))
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		switch {
		case i == len(a):
			out = append(out, b[j])
			j++
		case j == len(b):
			out = append(out, a[i])
			i++
		case worse(a[i], b[j]):
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
		}
	}
	return out
}
