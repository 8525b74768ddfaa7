// Compile-time structure analysis of flow skeletons: every compiled
// composite's transient graph is classified once — CSR out-edge lists,
// Tarjan SCC condensation, a successors-first solve order — so that the
// execute phase can replace the dense O(n³) LU of the augmented chain with
// an O(E) forward-substitution pass on acyclic flows (the common case:
// every paper flow and every `examples/` flow is a DAG) and with small
// per-SCC block solves on cyclic ones.
package core

// flowStructure is the per-composite result of the analysis, stored on the
// compiledComposite and immutable after Compile.
type flowStructure struct {
	// outEdges[i] lists the indices of comp.transitions leaving transient
	// state i (including edges to End and structurally-zero edges), in
	// transition-declaration order, so runtime passes enumerate a state's
	// edges in O(out-degree) instead of scanning the whole transition list.
	outEdges [][]int32

	// order lists every transient state successors-first: any state a
	// (non-self) transient edge of state i can reach appears before i
	// unless the two share an SCC. Absorption probabilities are computed
	// by walking this order, so each state's successors are already
	// solved when the state is reached.
	order []int32

	// sccOf maps each transient state to its SCC id; states of one SCC
	// are contiguous in order. sccStart[c]..sccStart[c+1] delimit SCC c's
	// slice of order, with SCCs themselves in successors-first order.
	sccOf    []int32
	sccStart []int32

	// maxSCC is the largest SCC's state count. 1 means the transient
	// graph is acyclic up to self-loops: the pure forward-substitution
	// fast path applies and the not-absorbing reachability check is
	// statically impossible to fail (see solveStructured).
	maxSCC int
}

// analyzeStructure classifies one compiled composite's transient graph.
// Edges considered for cycle structure are transitions between transient
// states whose probability is not a compile-time constant zero (a
// structurally-zero edge can never carry mass, so it cannot create a
// cycle; a parameter-dependent edge that happens to evaluate to zero is
// conservatively kept, which only costs speed, never correctness).
func analyzeStructure(comp *compiledComposite) *flowStructure {
	n := comp.n
	st := &flowStructure{
		outEdges: make([][]int32, n),
		sccOf:    make([]int32, n),
	}
	// adjacency over transient states for the SCC pass.
	adj := make([][]int32, n)
	for ti := range comp.transitions {
		tr := &comp.transitions[ti]
		st.outEdges[tr.from] = append(st.outEdges[tr.from], int32(ti))
		if tr.to < 0 || (tr.isConst && tr.constVal == 0) {
			continue
		}
		if tr.to == tr.from {
			continue // self-loops are handled per state, not as SCC edges
		}
		adj[tr.from] = append(adj[tr.from], int32(tr.to))
	}
	st.runTarjan(adj, n)
	return st
}

// runTarjan computes SCCs with Tarjan's algorithm (iterative, so deep
// chains cannot overflow the goroutine stack). Tarjan emits each SCC only
// after every SCC reachable from it has been emitted, which is exactly the
// successors-first order the structured solver consumes.
func (st *flowStructure) runTarjan(adj [][]int32, n int) {
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int32
	var next int32

	// Explicit DFS frames: state + position in its adjacency list.
	type frame struct {
		v  int32
		ei int
	}
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: int32(root)})
		index[root], low[root] = next, next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// f.v is finished: pop its SCC if it is a root.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			sccID := int32(len(st.sccStart))
			st.sccStart = append(st.sccStart, int32(len(st.order)))
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				st.sccOf[w] = sccID
				st.order = append(st.order, w)
				if w == v {
					break
				}
			}
			if size := len(st.order) - int(st.sccStart[sccID]); size > st.maxSCC {
				st.maxSCC = size
			}
		}
	}
	st.sccStart = append(st.sccStart, int32(len(st.order)))
}

// sccCount returns the number of SCCs.
func (st *flowStructure) sccCount() int { return len(st.sccStart) - 1 }

// scc returns SCC c's slice of the successors-first order.
func (st *flowStructure) scc(c int) []int32 {
	return st.order[st.sccStart[c]:st.sccStart[c+1]]
}
