"""Incremental rebalancing under edge updates (extension).

The paper's labeling makes a *dynamic* extension natural, and this
module implements it: once a tree T is labeled, the balanced state Σ_T
is a pure function of the tree-edge signs — the balanced sign of every
non-tree edge (u, v) equals ``sign_to_root[u] · sign_to_root[v]``, the
sign product of the tree path.  Consequently:

* flipping a **non-tree** edge's input sign changes nothing about the
  balanced state (only whether that edge counts as "switched") — O(1);
* flipping a **tree** edge p→c negates ``sign_to_root`` for exactly the
  subtree of ``c``, which the pre-order relabeling exposes as the
  contiguous ID range ``[new_id[c], new_id[c] + size[c] − 1]`` — so the
  affected non-tree edges are precisely those with *exactly one*
  endpoint in that range, found with two O(1) range tests per candidate
  edge and updated in O(affected);
* **adding** a non-tree edge costs O(1): its balanced sign is the
  current path product;
* **swapping the tree itself** — cut a tree edge, reconnect its severed
  subtree S through a non-tree edge crossing the cut — moves S as a
  block: the pre-order IDs of S stay contiguous, every other vertex
  shifts by ±|S|, and ``sign_to_root`` changes by one *uniform* factor
  over S (the moved subtree keeps its internal tree paths, so only the
  attachment segment of each root path changes).

The last point is the engine behind the incremental spanning-tree
sampler (:mod:`repro.trees.swap_chain`): deriving tree k+1 from tree k
by a swap touches only S, its CSR rows, the ID window it moves across
and two root paths, instead of a from-scratch sample + label + parity
pass.  :class:`TreeDeltaState` holds the mutable (tree, labeling,
sign-to-root) triple and implements both the sign-flip range negation
and the structural cut/link; :class:`IncrementalBalancer` wraps it
with the edge-update API.

Consistency with full recomputation is property-tested.
"""

from __future__ import annotations

import numpy as np

from repro.core.cycles_vectorized import sign_to_root
from repro.core.labeling import Labeling
from repro.core.labeling_parallel import label_tree_parallel
from repro.errors import GraphFormatError, ReproError
from repro.graph.csr import SignedGraph
from repro.perf.tracing import span
from repro.trees.tree import SpanningTree
from repro.util.arrays import gather_adjacency

__all__ = ["IncrementalBalancer", "TreeDeltaState"]


class TreeDeltaState:
    """Mutable (tree, labeling, sign-to-root) state under delta updates.

    Maintains, for one spanning tree of *graph*:

    * ``parent`` / ``parent_edge`` — the rooted forest,
    * ``in_tree`` / ``tree_edges`` — the tree-edge flags and the n−1
      tree-edge ids (``tree_edges`` is slot-addressable so a swap can
      replace the cut edge in place),
    * ``new_id`` / ``subtree_size`` — the pre-order labeling, kept
      exactly equal to ``label_tree`` of the current tree,
    * ``order`` — the inverse of ``new_id`` (``order[new_id] ==
      arange(n)``), so a subtree's members are one slice
      ``order[lo:hi + 1]``,
    * ``s2r`` — sign-to-root under *signs* (default: the graph's input
      signs), kept exactly equal to ``sign_to_root``.

    Two delta operations are supported: :meth:`negate_subtree` (the
    sign-flip range negation, one O(n) pass) and :meth:`cut_link` (the
    structural swap), which touches only the moved subtree S, its
    adjacency, the ID window it moves across and two root paths —
    never a from-scratch relabel.
    """

    def __init__(
        self,
        graph: SignedGraph,
        tree: SpanningTree,
        signs: np.ndarray | None = None,
    ) -> None:
        self.graph = graph
        self.root = int(tree.root)
        self.parent = tree.parent.copy()
        self.parent_edge = tree.parent_edge.copy()
        self.in_tree = tree.in_tree.copy()
        self.tree_edges = tree.tree_edge_ids()
        # ``signs`` may be a live (mutable) view shared with the owner —
        # IncrementalBalancer passes its running input signs so swap
        # factors always see the current sign of the link edge.
        self.signs = graph.edge_sign if signs is None else signs
        lab = label_tree_parallel(tree)
        self.new_id = lab.new_id.copy()
        self.subtree_size = lab.subtree_size.copy()
        self.order = np.empty_like(self.new_id)
        self.order[self.new_id] = np.arange(len(self.new_id))
        self.s2r = sign_to_root(graph, tree).copy()
        if signs is not None and not np.array_equal(signs, graph.edge_sign):
            raise ReproError(
                "initial signs must match the graph (flip them through "
                "the owner after construction)"
            )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def labeling(self) -> Labeling:
        """Snapshot the current labeling (equal to ``label_tree`` of the
        current tree, by construction)."""
        new_id = self.new_id.copy()
        size = self.subtree_size.copy()
        has_parent = self.parent >= 0
        return Labeling(
            new_id=new_id,
            subtree_size=size,
            range_lo=np.where(has_parent, new_id, -1),
            range_hi=np.where(has_parent, new_id + size - 1, -1),
        )

    def spanning_tree(self) -> SpanningTree:
        """Materialize (and re-validate) the current tree."""
        return SpanningTree.from_parents(
            self.graph, self.root, self.parent.copy(), self.parent_edge.copy()
        )

    def balanced_signs(self) -> np.ndarray:
        """The nearest balanced state of the current tree: every edge
        takes its tree-path sign product (tree edges reproduce their
        input sign by the consistency of ``s2r``)."""
        s2r = self.s2r
        return (
            s2r[self.graph.edge_u].astype(np.int16)
            * s2r[self.graph.edge_v].astype(np.int16)
        ).astype(np.int8)

    def subtree_range(self, child: int) -> tuple[int, int]:
        """Inclusive pre-order ID range of the subtree at *child*."""
        lo = int(self.new_id[child])
        return lo, lo + int(self.subtree_size[child]) - 1

    def child_endpoint(self, tree_edge: int) -> int:
        """The child-side endpoint of a tree edge."""
        u = int(self.graph.edge_u[tree_edge])
        v = int(self.graph.edge_v[tree_edge])
        return u if self.parent[u] == v else v

    # ------------------------------------------------------------------
    # Delta 1: sign flip (range negation)
    # ------------------------------------------------------------------
    def negate_subtree(self, child: int) -> np.ndarray:
        """Negate ``s2r`` over the subtree of *child* (the effect of
        flipping the sign of its parent edge); returns the membership
        mask of the negated range."""
        lo, hi = self.subtree_range(child)
        ids = self.new_id
        in_range = (ids >= lo) & (ids <= hi)
        self.s2r[in_range] = -self.s2r[in_range]
        return in_range

    # ------------------------------------------------------------------
    # Delta 2: structural cut/link (the tree swap)
    # ------------------------------------------------------------------
    def crossing_candidates(self, child: int) -> np.ndarray:
        """Non-tree edge ids with exactly one endpoint in the subtree of
        *child* — the edges that can re-span the cut of its parent
        edge — in ascending order.

        Only the subtree's own CSR rows are read: S is the ID slice
        ``order[lo:hi + 1]``, and every crossing edge has exactly one
        half-edge leaving S, so O(|S| + vol(S)) work finds each one
        once.  The cut edge itself is still flagged ``in_tree`` and is
        therefore never a candidate (a swap always changes the tree)."""
        lo, hi = self.subtree_range(child)
        graph = self.graph
        pos, _ = gather_adjacency(graph.indptr, self.order[lo : hi + 1])
        far = self.new_id[graph.adj_vertex[pos]]
        edges = graph.adj_edge[pos]
        leaves = ((far < lo) | (far > hi)) & ~self.in_tree[edges]
        return np.sort(edges[leaves])

    def cut_link(
        self, cut_edge: int, link_edge: int, slot: int | None = None
    ) -> None:
        """Cut tree edge p→c and reconnect its subtree S through the
        non-tree edge *link_edge* = (u_out, v_in), v_in ∈ S.

        All derived state updates as deltas, in
        O(|S| + deg(u_out) + window + depth) work:

        * ``s2r[x]`` for x ∈ S changes by the uniform factor
          ``s2r[u_out] · s2r[v_in] · sign(link_edge)`` (tree paths
          inside S are unchanged; only the attachment segment differs),
          applied to S's members ``order[lo:hi + 1]``;
        * pre-order IDs: S is relabeled by an O(|S|) mini pre-order
          re-rooted at v_in, and its block moves to the insertion point
          under u_out; only the vertices between S's old range and that
          point shift (by ±|S|), so ``order`` is rotated over that
          window alone and ``new_id`` rewritten from it — bit-identical
          to ``label_tree`` of the new tree;
        * ``subtree_size`` changes only on the two root paths (−|S|
          above the cut, +|S| above the link) and inside S.
        """
        graph = self.graph
        if not self.in_tree[cut_edge]:
            raise ReproError(f"edge {cut_edge} is not a tree edge")
        if self.in_tree[link_edge]:
            raise ReproError(f"edge {link_edge} is already a tree edge")
        if slot is None:
            slot = int(np.nonzero(self.tree_edges == cut_edge)[0][0])

        c = self.child_endpoint(cut_edge)
        p = int(self.parent[c])
        lo, hi = self.subtree_range(c)
        s = hi - lo + 1

        fu = int(graph.edge_u[link_edge])
        fv = int(graph.edge_v[link_edge])
        fu_in = lo <= int(self.new_id[fu]) <= hi
        fv_in = lo <= int(self.new_id[fv]) <= hi
        if fu_in == fv_in:
            raise ReproError(
                f"edge {link_edge} does not cross the cut of edge {cut_edge}"
            )
        v_in = fu if fu_in else fv
        u_out = fv if fu_in else fu

        # The uniform sign factor over S (see the module docstring).
        factor = (
            int(self.s2r[u_out])
            * int(self.s2r[v_in])
            * int(self.signs[link_edge])
        )

        # Members of S in current pre-order (copied: ``order`` is
        # rewritten below).
        members = self.order[lo : hi + 1].copy()

        # Insertion point of S under u_out, measured in the labeling of
        # the tree *without* S: position of u_out, plus one for u_out
        # itself, plus every earlier sibling's S-free subtree size
        # (children are visited in ascending vertex id).  u_out's
        # children are among its graph neighbours.
        ids = self.new_id
        mid_uout = int(ids[u_out]) - (s if ids[u_out] > hi else 0)
        row = graph.adj_vertex[graph.indptr[u_out] : graph.indptr[u_out + 1]]
        old_kids_out = np.unique(row[self.parent[row] == u_out])
        start = mid_uout + 1
        for w in old_kids_out:
            w = int(w)
            if w == c or w >= v_in:
                continue
            w_lo = int(ids[w])
            w_size = int(self.subtree_size[w])
            covers_s = w_lo <= lo and hi <= w_lo + w_size - 1
            start += w_size - (s if covers_s else 0)

        # Structural update: reverse the path v_in → c, attach v_in
        # under u_out, and swap the edge flags.
        path = [v_in]
        while path[-1] != c:
            path.append(int(self.parent[path[-1]]))
        old_pe = [int(self.parent_edge[x]) for x in path]
        for i in range(len(path) - 1):
            self.parent[path[i + 1]] = path[i]
            self.parent_edge[path[i + 1]] = old_pe[i]
        self.parent[v_in] = u_out
        self.parent_edge[v_in] = link_edge
        self.in_tree[cut_edge] = False
        self.in_tree[link_edge] = True
        self.tree_edges[slot] = link_edge

        with span("delta_relabel"):
            # Mini pre-order of S re-rooted at v_in (children ascending
            # vertex id, matching label_tree's visit order).
            kids: dict[int, list[int]] = {}
            for x in np.sort(members):
                x = int(x)
                if x != v_in:
                    kids.setdefault(int(self.parent[x]), []).append(x)
            pre: list[int] = []
            local_size: dict[int, int] = {}
            stack = [v_in]
            while stack:
                x = stack.pop()
                if x < 0:
                    x = ~x
                    if x != v_in:
                        local_size[int(self.parent[x])] += local_size[x]
                    continue
                pre.append(x)
                local_size[x] = 1
                stack.append(~x)
                for ch in reversed(kids.get(x, ())):
                    stack.append(ch)

            # Move S's block to ``start``: rotate the ID window between
            # its old range and its insertion point.  Moving left, the
            # vertices at [start, lo) shift up by |S|; moving right,
            # those at (hi, start + |S|) shift down by |S|.
            order = self.order
            if start <= lo:
                first = start
                window = np.concatenate([pre, order[start:lo]])
            else:
                first = lo
                window = np.concatenate([order[hi + 1 : start + s], pre])
            order[first : first + len(window)] = window
            ids[window] = np.arange(first, first + len(window))

            # Subtree sizes: the two root paths, then S's own sizes.
            v = p
            while v >= 0:
                self.subtree_size[v] -= s
                v = int(self.parent[v])
            v = u_out
            while v >= 0:
                self.subtree_size[v] += s
                v = int(self.parent[v])
            self.subtree_size[pre] = [local_size[x] for x in pre]

        if factor < 0:
            self.s2r[members] = -self.s2r[members]

    def random_swap(
        self, rng: np.random.Generator, max_attempts: int = 16
    ) -> bool:
        """One random cut/link swap: a uniform tree-edge slot, then a
        uniform crossing non-tree edge.  Cuts whose subtree no non-tree
        edge re-spans are retried (fresh draws) up to *max_attempts*
        times; returns whether the tree changed.  Graphs with no
        fundamental cycle (trees) never change."""
        if self.graph.num_fundamental_cycles == 0:
            return False
        for _ in range(max_attempts):
            slot = int(rng.integers(0, len(self.tree_edges)))
            cut_edge = int(self.tree_edges[slot])
            child = self.child_endpoint(cut_edge)
            cand = self.crossing_candidates(child)
            if not len(cand):
                continue
            link_edge = int(cand[int(rng.integers(0, len(cand)))])
            self.cut_link(cut_edge, link_edge, slot=slot)
            return True
        return False


class IncrementalBalancer:
    """Maintain the nearest balanced state Σ_T under edge-sign updates.

    Signs (tree or non-tree) may change, non-tree edges may be
    appended, and the tree itself may be re-spanned one edge at a time
    (:meth:`swap_tree_edge`).  Use :meth:`balanced_signs` to read the
    current state and :meth:`flipped` for the switch mask.
    """

    def __init__(self, graph: SignedGraph, tree: SpanningTree) -> None:
        self._graph = graph
        self._signs = graph.edge_sign.copy()
        self._delta = TreeDeltaState(graph, tree, signs=self._signs)
        self._tree: SpanningTree | None = tree
        self._non_tree = tree.non_tree_edge_ids()
        # Appended edges: (u, v, input_sign) beyond the original m.
        self._extra_u: list[int] = []
        self._extra_v: list[int] = []
        self._extra_sign: list[int] = []

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def tree(self) -> SpanningTree:
        if self._tree is None:
            self._tree = self._delta.spanning_tree()
        return self._tree

    @property
    def labeling(self) -> Labeling:
        return self._delta.labeling()

    def input_signs(self) -> np.ndarray:
        """Current input signs of the original edges (copy)."""
        return self._signs.copy()

    def balanced_signs(self) -> np.ndarray:
        """Balanced-state signs of the original ``m`` edges.

        Tree edges keep their input sign; each non-tree edge takes the
        sign product of its tree path (= the state Alg. 3 produces).
        """
        out = self._signs.copy()
        nt = self._non_tree
        u = self._graph.edge_u[nt]
        v = self._graph.edge_v[nt]
        s2r = self._delta.s2r
        out[nt] = (
            s2r[u].astype(np.int16) * s2r[v].astype(np.int16)
        ).astype(np.int8)
        return out

    def flipped(self) -> np.ndarray:
        """Bool mask of original edges whose balanced sign differs from
        the current input sign."""
        return self.balanced_signs() != self._signs

    def extra_balanced_signs(self) -> np.ndarray:
        """Balanced signs of the appended non-tree edges, in append order."""
        if not self._extra_u:
            return np.empty(0, dtype=np.int8)
        u = np.asarray(self._extra_u)
        v = np.asarray(self._extra_v)
        s2r = self._delta.s2r
        return (
            s2r[u].astype(np.int16) * s2r[v].astype(np.int16)
        ).astype(np.int8)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def set_sign(self, edge: int, sign: int) -> int:
        """Change the input sign of an original edge.

        Returns the number of non-tree edges whose *balanced* sign
        changed (0 for non-tree updates; the affected range population
        for tree updates).
        """
        if sign not in (-1, 1):
            raise GraphFormatError("sign must be +1 or -1")
        if not 0 <= edge < self._graph.num_edges:
            raise GraphFormatError(f"edge id {edge} out of range")
        if self._signs[edge] == sign:
            return 0
        self._signs[edge] = sign
        if not self._delta.in_tree[edge]:
            # Balanced state is a function of tree signs only.
            return 0

        # Tree edge p->c: negate the subtree's sign_to_root over its
        # contiguous ID range.
        in_range = self._delta.negate_subtree(self._delta.child_endpoint(edge))

        # Count affected fundamental cycles: non-tree edges with exactly
        # one endpoint inside the range (both-inside cycles cancel).
        nt = self._non_tree
        a_in = in_range[self._graph.edge_u[nt]]
        b_in = in_range[self._graph.edge_v[nt]]
        affected = int(np.count_nonzero(a_in ^ b_in))
        if self._extra_u:
            ea = in_range[np.asarray(self._extra_u)]
            eb = in_range[np.asarray(self._extra_v)]
            affected += int(np.count_nonzero(ea ^ eb))
        return affected

    def flip_sign(self, edge: int) -> int:
        """Negate an original edge's input sign (see :meth:`set_sign`)."""
        return self.set_sign(edge, -int(self._signs[edge]))

    def swap_tree_edge(self, cut_edge: int, link_edge: int) -> int:
        """Re-span the tree: cut *cut_edge* and reconnect its severed
        subtree through *link_edge* (a non-tree edge crossing the cut).

        The input signs are untouched; the *balanced* state changes
        because the tree defining it does.  Returns the number of
        original edges whose balanced sign changed.  Raises
        :class:`~repro.errors.ReproError` when the edges do not form a
        valid cut/link pair.
        """
        before = self.balanced_signs()
        self._delta.cut_link(cut_edge, link_edge)
        self._tree = None  # stale; re-materialized on demand
        self._non_tree = np.nonzero(~self._delta.in_tree)[0]
        return int(np.count_nonzero(self.balanced_signs() != before))

    def add_edge(self, u: int, v: int, sign: int) -> int:
        """Append a non-tree edge and return its balanced sign (O(1)).

        The tree is unchanged, so the new edge closes one new
        fundamental cycle whose balanced sign is the current tree-path
        product.
        """
        n = self._graph.num_vertices
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise GraphFormatError(f"invalid endpoints ({u}, {v})")
        if sign not in (-1, 1):
            raise GraphFormatError("sign must be +1 or -1")
        self._extra_u.append(u)
        self._extra_v.append(v)
        self._extra_sign.append(sign)
        return int(self._delta.s2r[u]) * int(self._delta.s2r[v])

    def remove_extra_edge(self, index: int) -> None:
        """Remove a previously appended edge (original edges are part of
        the tree structure and cannot be removed — re-tree instead)."""
        try:
            del self._extra_u[index]
            del self._extra_v[index]
            del self._extra_sign[index]
        except IndexError:
            raise ReproError(f"no appended edge at index {index}") from None

    # ------------------------------------------------------------------
    def current_graph(self) -> SignedGraph:
        """The current *input* graph (original structure + appended
        edges, current signs) — for cross-checking against a fresh
        ``balance`` run in tests."""
        from repro.graph.build import from_arrays

        u = np.concatenate([self._graph.edge_u, np.asarray(self._extra_u, dtype=np.int64)])
        v = np.concatenate([self._graph.edge_v, np.asarray(self._extra_v, dtype=np.int64)])
        s = np.concatenate([self._signs, np.asarray(self._extra_sign, dtype=np.int8)])
        return from_arrays(u, v, s, num_vertices=self._graph.num_vertices, dedup="first")
