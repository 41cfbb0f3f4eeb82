package kernels

import (
	"fmt"

	"gpulat/internal/sim"
)

// Graph is a directed graph in compressed sparse row form.
type Graph struct {
	N      int
	RowOff []uint32 // length N+1
	Col    []uint32 // length RowOff[N]
}

// Edges returns the edge count.
func (g *Graph) Edges() int { return int(g.RowOff[g.N]) }

// GenUniformRandom builds a random directed graph with n vertices whose
// out-degrees are uniform in [1, 2*avgDeg-1] and neighbors are uniform —
// the unstructured access pattern that defeats coalescing.
func GenUniformRandom(n, avgDeg int, seed uint64) *Graph {
	if n <= 1 || avgDeg < 1 {
		panic("kernels: graph needs n > 1 and avgDeg >= 1")
	}
	rng := sim.NewRNG(seed)
	g := &Graph{N: n, RowOff: make([]uint32, n+1)}
	var col []uint32
	for v := 0; v < n; v++ {
		g.RowOff[v] = uint32(len(col))
		deg := 1 + rng.Intn(2*avgDeg-1)
		for e := 0; e < deg; e++ {
			w := rng.Intn(n)
			if w == v {
				w = (w + 1) % n
			}
			col = append(col, uint32(w))
		}
	}
	g.RowOff[n] = uint32(len(col))
	g.Col = col
	return g
}

// GenScaleFree builds a preferential-attachment (Barabási–Albert style)
// graph: each new vertex attaches m edges to existing vertices with
// probability proportional to their degree, yielding the skewed degree
// distribution of real-world graphs — heavy warp divergence in BFS.
// Edges are stored in both directions so the graph is connected from
// vertex 0.
func GenScaleFree(n, m int, seed uint64) *Graph {
	if n <= m || m < 1 {
		panic("kernels: scale-free graph needs n > m >= 1")
	}
	rng := sim.NewRNG(seed)
	adj := make([][]uint32, n)
	// Endpoint pool: vertices appear once per incident edge, making
	// degree-proportional sampling a uniform pool draw.
	var pool []uint32
	// Seed clique over the first m+1 vertices.
	for v := 0; v <= m; v++ {
		for w := 0; w < v; w++ {
			adj[v] = append(adj[v], uint32(w))
			adj[w] = append(adj[w], uint32(v))
			pool = append(pool, uint32(v), uint32(w))
		}
	}
	for v := m + 1; v < n; v++ {
		chosen := map[uint32]bool{}
		for len(chosen) < m {
			var w uint32
			if len(pool) == 0 || rng.Intn(10) == 0 {
				w = uint32(rng.Intn(v))
			} else {
				w = pool[rng.Intn(len(pool))]
			}
			if int(w) == v || chosen[w] {
				continue
			}
			chosen[w] = true
			adj[v] = append(adj[v], w)
			adj[int(w)] = append(adj[int(w)], uint32(v))
			pool = append(pool, uint32(v), w)
		}
	}
	g := &Graph{N: n, RowOff: make([]uint32, n+1)}
	var col []uint32
	for v := 0; v < n; v++ {
		g.RowOff[v] = uint32(len(col))
		col = append(col, adj[v]...)
	}
	g.RowOff[n] = uint32(len(col))
	g.Col = col
	return g
}

// Unreached marks vertices BFS never visited.
const Unreached = 0xFFFFFFFF

// CPUBFS computes reference BFS levels from src.
func CPUBFS(g *Graph, src int) []uint32 {
	levels := make([]uint32, g.N)
	for i := range levels {
		levels[i] = Unreached
	}
	levels[src] = 0
	frontier := []int{src}
	for level := uint32(0); len(frontier) > 0; level++ {
		var next []int
		for _, v := range frontier {
			for _, w := range g.Col[g.RowOff[v]:g.RowOff[v+1]] {
				if levels[w] == Unreached {
					levels[w] = level + 1
					next = append(next, int(w))
				}
			}
		}
		frontier = next
	}
	return levels
}

// Validate checks CSR integrity (test helper).
func (g *Graph) Validate() error {
	if len(g.RowOff) != g.N+1 {
		return fmt.Errorf("graph: row offsets length %d, want %d", len(g.RowOff), g.N+1)
	}
	for v := 0; v < g.N; v++ {
		if g.RowOff[v] > g.RowOff[v+1] {
			return fmt.Errorf("graph: row offsets not monotonic at %d", v)
		}
	}
	if int(g.RowOff[g.N]) != len(g.Col) {
		return fmt.Errorf("graph: %d column entries, offsets claim %d", len(g.Col), g.RowOff[g.N])
	}
	for i, w := range g.Col {
		if int(w) >= g.N {
			return fmt.Errorf("graph: edge %d targets out-of-range vertex %d", i, w)
		}
	}
	return nil
}
