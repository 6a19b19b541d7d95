package main

import (
	"encoding/json"
	"math/rand"
	"sort"

	"mmxdsp/internal/campaign"
	"mmxdsp/internal/server"
)

// Inputs are generated here from the workload seed; the daemons only ever
// see the generated request bodies.

// freshGeometries are the L1 shapes the serve workload's fresh phase
// draws from: 8-32 KiB, so the modelled cache moves relative to each
// program's working set. The default shape (16 KiB, 4 ways) is left out
// so no fresh request can coincide with the hit set.
var freshGeometries = [][2]int{
	{8 << 10, 1}, {8 << 10, 2}, {8 << 10, 4},
	{16 << 10, 1}, {16 << 10, 2}, {16 << 10, 8},
	{32 << 10, 2}, {32 << 10, 4}, {32 << 10, 8},
}

// freshRequest is one (program, config) pair of the fresh phase.
type freshRequest struct {
	Program    string
	L1Size     int
	L1Ways     int
	Mispredict int
}

func (f freshRequest) body() []byte {
	data, err := json.Marshal(server.RunRequest{
		Program: f.Program,
		Config: &server.ConfigOverride{
			MispredictPenalty: f.Mispredict,
			L1Size:            f.L1Size,
			L1Ways:            f.L1Ways,
		},
	})
	if err != nil {
		panic(err) // a fixed struct of ints and a string always marshals
	}
	return data
}

// freshGen yields the fresh phase one round at a time. A round visits
// every program once, in a seeded order, so the mean over whole rounds
// weighs every program equally whatever the seed. Every pair is new: the
// mispredict penalty is distinct per round and never the default 4.
type freshGen struct {
	rng      *rand.Rand
	programs []string
	base     int
	round    int
}

// maxFreshRounds bounds the rounds one run may draw, so penalties stay
// inside the accepted range [1, 1000].
const maxFreshRounds = 490

func newFreshGen(seed int64, programs []string) *freshGen {
	rng := rand.New(rand.NewSource(seed))
	return &freshGen{rng: rng, programs: programs, base: 5 + rng.Intn(500)}
}

// next returns the next round, or nil once maxFreshRounds are drawn.
func (g *freshGen) next() []freshRequest {
	if g.round >= maxFreshRounds {
		return nil
	}
	out := make([]freshRequest, len(g.programs))
	for i, p := range g.rng.Perm(len(g.programs)) {
		geo := freshGeometries[g.rng.Intn(len(freshGeometries))]
		out[i] = freshRequest{Program: g.programs[p], L1Size: geo[0], L1Ways: geo[1], Mispredict: g.base + g.round}
	}
	g.round++
	return out
}

// hitBody is the /run body of the hit phase: the default config.
func hitBody(program string) []byte {
	data, err := json.Marshal(server.RunRequest{Program: program})
	if err != nil {
		panic(err)
	}
	return data
}

// gridGen yields the campaign workload's cold grids: every program × two
// L1 sizes × gridPenalties mispredict penalties, with skip_check as
// ablation users send it. Penalties are drawn without replacement, so no
// grid of a run repeats a point of an earlier one and every timed point
// is cold in both result caches.
type gridGen struct {
	programs []string
	l1Sizes  []int
	pool     []int
	next     int
}

const (
	gridPenalties = 2
	// warmPenalty is the warm-up grid's penalty; the timed pool starts
	// above it so warm-up fills nothing a timed grid reads.
	warmPenalty = 3
)

func newGridGen(seed int64, programs []string) *gridGen {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{8 << 10, 16 << 10, 32 << 10}
	perm := rng.Perm(len(sizes))
	l1 := []int{sizes[perm[0]], sizes[perm[1]]}
	sort.Ints(l1)
	pool := make([]int, 0, 1000)
	for v := 5; v <= 1000; v++ {
		pool = append(pool, v)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return &gridGen{programs: programs, l1Sizes: l1, pool: pool}
}

// nextSpec returns the next cold grid's POST /campaign body, or nil when
// the penalty pool is spent.
func (g *gridGen) nextSpec() []byte {
	if g.next+gridPenalties > len(g.pool) {
		return nil
	}
	pen := append([]int(nil), g.pool[g.next:g.next+gridPenalties]...)
	g.next += gridPenalties
	sort.Ints(pen)
	return specBody(g.programs, map[string][]int{"l1_size": g.l1Sizes, "mispredict_penalty": pen})
}

// warmSpec is the set-up grid: every program at one penalty no timed grid
// uses, so it warms the daemons without filling a timed point. It is the
// same for every seed, so set-up routes the same points to the same
// backends in every run.
func (g *gridGen) warmSpec() []byte {
	return specBody(g.programs, map[string][]int{"l1_size": {16 << 10}, "mispredict_penalty": {warmPenalty}})
}

func specBody(programs []string, axes map[string][]int) []byte {
	data, err := json.Marshal(campaign.Spec{Programs: programs, Axes: axes, SkipCheck: true})
	if err != nil {
		panic(err)
	}
	return data
}
