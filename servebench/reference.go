package main

// Naive reference evaluators. Each one answers a workload's queries from a
// read snapshot through the core API (lookups, edge enumeration, vertex
// reads) without the query engine, so the engine's replies can be checked
// against an independent evaluation.

import (
	"fmt"
	"sort"

	"a1"
	"a1/internal/workload"
)

// kgRef holds the film KG's expected answers.
type kgRef struct {
	popularity map[string]float64 // actor id -> popularity
	costar     map[string]int64   // actor id -> distinct 2-hop co-stars
	q1, q2     int64
	q3         []string // sorted film names
}

// refReader walks a read snapshot through the core API.
type refReader struct {
	g  *a1.Graph
	tx *a1.Tx
}

func (r refReader) lookup(typ, id string) (a1.VertexPtr, error) {
	vp, ok, err := r.g.LookupVertex(r.tx, typ, a1.Str(id))
	if err != nil {
		return vp, err
	}
	if !ok {
		return vp, fmt.Errorf("vertex %q not found", id)
	}
	return vp, nil
}

func (r refReader) out(vp a1.VertexPtr, label string) ([]a1.VertexPtr, error) {
	var out []a1.VertexPtr
	err := r.g.EnumerateEdges(r.tx, vp, a1.DirOut, label, func(he a1.HalfEdge) bool {
		out = append(out, he.Other)
		return true
	})
	return out, err
}

// data reads the values of vps in one batch.
func (r refReader) data(vps []a1.VertexPtr) ([]a1.Value, error) {
	vs, err := r.g.ReadVertices(r.tx, vps)
	if err != nil {
		return nil, err
	}
	out := make([]a1.Value, len(vs))
	for i, v := range vs {
		if v == nil {
			return nil, fmt.Errorf("vertex %v vanished", vps[i])
		}
		out[i] = v.Data
	}
	return out, nil
}

// hop2 counts the distinct vertices two hops from root along l1 then l2;
// memo caches second-hop lists across calls.
func (r refReader) hop2(root a1.VertexPtr, l1, l2 string, memo map[a1.VertexPtr][]a1.VertexPtr) (int64, error) {
	mids, err := r.out(root, l1)
	if err != nil {
		return 0, err
	}
	seen := map[a1.VertexPtr]bool{}
	for _, m := range mids {
		ends, ok := memo[m]
		if !ok {
			if ends, err = r.out(m, l2); err != nil {
				return 0, err
			}
			memo[m] = ends
		}
		for _, v := range ends {
			seen[v] = true
		}
	}
	return int64(len(seen)), nil
}

// buildKGRef computes the film KG reference for actors [0, actors).
func buildKGRef(e *env) error {
	var ref *kgRef
	var err error
	e.db.Run(func(c *a1.Ctx) {
		ref, err = kgReference(refReader{e.g, e.db.ReadTransaction(c)}, e.keySpace)
	})
	e.ref = ref
	return err
}

func kgReference(r refReader, actors int) (*kgRef, error) {
	ref := &kgRef{popularity: map[string]float64{}, costar: map[string]int64{}}
	casts := map[a1.VertexPtr][]a1.VertexPtr{}
	ptrs := make([]a1.VertexPtr, actors)
	for i := range ptrs {
		//lint:ignore a1/batchreads the core API has no batched primary-key lookup; the reference runs once, untimed, before the traffic
		vp, err := r.lookup("entity", actorID(i))
		if err != nil {
			return nil, err
		}
		ptrs[i] = vp
	}
	data, err := r.data(ptrs)
	if err != nil {
		return nil, err
	}
	for i, vp := range ptrs {
		id := actorID(i)
		pop, _ := data[i].Field(2)
		ref.popularity[id] = pop.AsFloat()
		if ref.costar[id], err = r.hop2(vp, "actor.film", "film.actor", casts); err != nil {
			return nil, err
		}
	}
	spielberg, err := r.lookup("entity", "steven.spielberg")
	if err != nil {
		return nil, err
	}
	if ref.q1, err = r.hop2(spielberg, "director.film", "film.actor", map[a1.VertexPtr][]a1.VertexPtr{}); err != nil {
		return nil, err
	}
	// Q2: Batman's films -> performances playing Batman -> actors.
	batman, err := r.lookup("entity", "character.batman")
	if err != nil {
		return nil, err
	}
	films, err := r.out(batman, "character.film")
	if err != nil {
		return nil, err
	}
	var perfs []a1.VertexPtr
	for _, f := range films {
		ps, err := r.out(f, "film.performance")
		if err != nil {
			return nil, err
		}
		perfs = append(perfs, ps...)
	}
	perfData, err := r.data(perfs)
	if err != nil {
		return nil, err
	}
	actorsOfBatman := map[a1.VertexPtr]bool{}
	for i, p := range perfs {
		attrs, _ := perfData[i].Field(3)
		if ch, ok := attrs.MapGet(a1.Str("character")); !ok || ch.AsString() != "Batman" {
			continue
		}
		as, err := r.out(p, "performance.actor")
		if err != nil {
			return nil, err
		}
		for _, a := range as {
			actorsOfBatman[a] = true
		}
	}
	ref.q2 = int64(len(actorsOfBatman))
	// Q3: Spielberg's films starring Tom Hanks in the war genre.
	hanks, err := r.lookup("entity", "tom.hanks")
	if err != nil {
		return nil, err
	}
	war, err := r.lookup("entity", "war")
	if err != nil {
		return nil, err
	}
	sfilms, err := r.out(spielberg, "director.film")
	if err != nil {
		return nil, err
	}
	var matches []a1.VertexPtr
	for _, f := range sfilms {
		cast, err := r.out(f, "film.actor")
		if err != nil {
			return nil, err
		}
		genres, err := r.out(f, "film.genre")
		if err != nil {
			return nil, err
		}
		if containsPtr(cast, hanks) && containsPtr(genres, war) {
			matches = append(matches, f)
		}
	}
	filmData, err := r.data(matches)
	if err != nil {
		return nil, err
	}
	for _, d := range filmData {
		names, _ := d.Field(1)
		ref.q3 = append(ref.q3, names.Index(0).AsString())
	}
	sort.Strings(ref.q3)
	return ref, nil
}

func containsPtr(ps []a1.VertexPtr, p a1.VertexPtr) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

func (k *kgRef) checkPoint(id string, res *a1.Result) error {
	if len(res.Rows) != 1 {
		return fmt.Errorf("point %s: %d rows", id, len(res.Rows))
	}
	v := res.Rows[0].Values
	if got := v["id"].AsString(); got != id {
		return fmt.Errorf("point %s: id %q", id, got)
	}
	if got, want := v["popularity"].AsFloat(), k.popularity[id]; got != want {
		return fmt.Errorf("point %s: popularity %v, want %v", id, got, want)
	}
	return nil
}

func (k *kgRef) checkQ3(res *a1.Result) error {
	var got []string
	for _, row := range res.Rows {
		got = append(got, row.Values["name[0]"].AsString())
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(k.q3) {
		return fmt.Errorf("q3: %v, want %v", got, k.q3)
	}
	return nil
}

// zipfRef holds the Zipf graph's expected answers.
type zipfRef struct {
	z        *workload.ZipfGraph
	ptr      []a1.VertexPtr
	index    map[a1.VertexPtr]int
	category []string
	score    []int64
	out      [][]int // out-neighbour indexes along link edges
	catCount map[string]int64
	// topK holds, per category, the expected TopKNeighborsQuery ids.
	topK map[string][]string
	// reach holds, per probe root, the vertices 1..zipfRecurseMax hops away.
	reach map[string][]bool
	// hubIn holds the in-neighbours of the write workload's hubs.
	hubIn []map[int]bool
}

func buildZipfRef(e *env, z *workload.ZipfGraph) error {
	var ref *zipfRef
	var err error
	e.db.Run(func(c *a1.Ctx) {
		ref, err = zipfReference(refReader{e.g, e.db.ReadTransaction(c)}, z)
	})
	e.ref = ref
	return err
}

// zipfHubs is how many of the heaviest in-degree vertices zipf_rw adds
// and removes edges on.
const zipfHubs = 6

func zipfReference(r refReader, z *workload.ZipfGraph) (*zipfRef, error) {
	n := z.Vertices
	ref := &zipfRef{
		z: z, ptr: make([]a1.VertexPtr, n), index: make(map[a1.VertexPtr]int, n),
		category: make([]string, n), score: make([]int64, n), out: make([][]int, n),
		catCount: map[string]int64{}, topK: map[string][]string{}, reach: map[string][]bool{},
	}
	for i := 0; i < n; i++ {
		vp, err := r.lookup("node", z.VertexID(i))
		if err != nil {
			return nil, err
		}
		ref.ptr[i] = vp
		ref.index[vp] = i
	}
	vs, err := r.g.ReadVertices(r.tx, ref.ptr)
	if err != nil {
		return nil, err
	}
	for i, v := range vs {
		if v == nil {
			return nil, fmt.Errorf("vertex %s vanished", z.VertexID(i))
		}
		cat, _ := v.Data.Field(1)
		sc, _ := v.Data.Field(2)
		ref.category[i], ref.score[i] = cat.AsString(), sc.AsInt()
		ref.catCount[ref.category[i]]++
	}
	for i := 0; i < n; i++ {
		outs, err := r.out(ref.ptr[i], "link")
		if err != nil {
			return nil, err
		}
		for _, o := range outs {
			ref.out[i] = append(ref.out[i], ref.index[o])
		}
	}
	// Top-K neighbours per category: the K best scores in the union of the
	// category's out-neighbours.
	for rank := 0; rank < z.Categories; rank++ {
		cat := z.CategoryName(rank)
		seen := map[int]bool{}
		var cand []int
		for i := 0; i < n; i++ {
			if ref.category[i] != cat {
				continue
			}
			for _, o := range ref.out[i] {
				if !seen[o] {
					seen[o] = true
					cand = append(cand, o)
				}
			}
		}
		ref.topK[cat] = ref.topByScore(cand, zipfTopK)
	}
	for i := 0; i < zipfRoots; i++ {
		root := zipfRootID(z, i)
		ref.reach[root] = ref.bfs(ref.indexOf(root), zipfRecurseMax)
	}
	for h := 0; h < zipfHubs; h++ {
		in := map[int]bool{}
		err := r.g.EnumerateEdges(r.tx, ref.ptr[h], a1.DirIn, "link", func(he a1.HalfEdge) bool {
			in[ref.index[he.Other]] = true
			return true
		})
		if err != nil {
			return nil, err
		}
		ref.hubIn = append(ref.hubIn, in)
	}
	return ref, nil
}

func (z *zipfRef) indexOf(id string) int {
	var i int
	fmt.Sscanf(id, "z%d", &i)
	return i
}

// topByScore returns the ids of the k highest-scored vertices among cand.
func (z *zipfRef) topByScore(cand []int, k int) []string {
	sort.Slice(cand, func(a, b int) bool { return z.score[cand[a]] > z.score[cand[b]] })
	if len(cand) > k {
		cand = cand[:k]
	}
	ids := make([]string, len(cand))
	for i, c := range cand {
		ids[i] = z.z.VertexID(c)
	}
	return ids
}

// bfs marks the vertices at hop distance 1..max from root.
func (z *zipfRef) bfs(root, max int) []bool {
	dist := make([]int, len(z.out))
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	frontier := []int{root}
	for d := 1; d <= max && len(frontier) > 0; d++ {
		var next []int
		for _, v := range frontier {
			for _, o := range z.out[v] {
				if dist[o] < 0 {
					dist[o] = d
					next = append(next, o)
				}
			}
		}
		frontier = next
	}
	in := make([]bool, len(z.out))
	for i, d := range dist {
		in[i] = d >= 1
	}
	return in
}

func (z *zipfRef) checkTopGroups(groups []a1.GroupRow) error {
	counts := make([]int64, 0, len(z.catCount))
	for _, c := range z.catCount {
		counts = append(counts, c)
	}
	sort.Slice(counts, func(a, b int) bool { return counts[a] > counts[b] })
	if len(counts) > zipfTopK {
		counts = counts[:zipfTopK]
	}
	if len(groups) != len(counts) {
		return fmt.Errorf("topgroups: %d groups, want %d", len(groups), len(counts))
	}
	for i, g := range groups {
		cat := g.Keys["category"].AsString()
		got := g.Aggregates["_count(*)"].AsInt()
		if got != z.catCount[cat] || got != counts[i] {
			return fmt.Errorf("topgroups[%d]: %s=%d, want %d (rank count %d)", i, cat, got, z.catCount[cat], counts[i])
		}
	}
	return nil
}

func (z *zipfRef) checkScoreGroups(groups []a1.GroupRow) error {
	var sum int64
	for _, g := range groups {
		sum += g.Aggregates["_count(*)"].AsInt()
	}
	if sum != int64(len(z.score)) || len(groups) != len(z.score) {
		return fmt.Errorf("groupscore: %d groups summing to %d, want %d of %d", len(groups), sum, len(z.score), len(z.score))
	}
	return nil
}

func (z *zipfRef) checkTopKNeighbors(cat string, res *a1.Result) error {
	want := z.topK[cat]
	if len(res.Rows) != len(want) {
		return fmt.Errorf("topkneighbors %s: %d rows, want %d", cat, len(res.Rows), len(want))
	}
	for i, row := range res.Rows {
		if got := row.Values["id"].AsString(); got != want[i] {
			return fmt.Errorf("topkneighbors %s[%d]: %s, want %s", cat, i, got, want[i])
		}
	}
	return nil
}

func (z *zipfRef) checkReach(root string, ids []string) error {
	in := z.reach[root]
	want := 0
	for _, b := range in {
		if b {
			want++
		}
	}
	if len(ids) != want {
		return fmt.Errorf("recurse %s: %d rows, want %d", root, len(ids), want)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] || !in[z.indexOf(id)] {
			return fmt.Errorf("recurse %s: unexpected or repeated row %s", root, id)
		}
		seen[id] = true
	}
	return nil
}
