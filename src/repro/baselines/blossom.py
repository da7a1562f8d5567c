# This module is a port of ``max_weight_matching`` from NetworkX 3.6.1
# (``networkx/algorithms/matching.py``), whose notice follows.  NetworkX's
# code in turn derives from Joris van Rantwijk's ``mwmatching.py``.
#
#   NetworkX is distributed with the 3-clause BSD license.
#
#   Copyright (c) 2004-2025, NetworkX Developers
#   Aric Hagberg <hagberg@lanl.gov>
#   Dan Schult <dschult@colgate.edu>
#   Pieter Swart <swart@lanl.gov>
#   All rights reserved.
#
#   Redistribution and use in source and binary forms, with or without
#   modification, are permitted provided that the following conditions are
#   met:
#
#     * Redistributions of source code must retain the above copyright
#       notice, this list of conditions and the following disclaimer.
#
#     * Redistributions in binary form must reproduce the above
#       copyright notice, this list of conditions and the following
#       disclaimer in the documentation and/or other materials provided
#       with the distribution.
#
#     * Neither the name of the NetworkX Developers nor the names of its
#       contributors may be used to endorse or promote products derived
#       from this software without specific prior written permission.
#
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""Exact maximum weight matching: NetworkX's blossom algorithm on integer-indexed lists.

:func:`max_weight_matching` is ``networkx.max_weight_matching(G,
maxcardinality=False)`` for a simple graph ``G`` on vertices ``0 .. n-1``
with float weights, built vertex by vertex and then edge by edge in
edge-id order (as the oracle tests build it).  It returns the same pair
set, built the same way, so the pairs iterate in the same order and a sum
over them — :func:`repro.baselines.exact_matching`'s weight — has the same
bits.

What changed from NetworkX, and why no decision moves:

* Vertex-keyed dicts (``label``, ``labeledge``, ``inblossom``,
  ``blossomparent``, ``blossombase``, ``bestedge``, ``dualvar``) are lists;
  ``None`` stands for a missing key, which is how NetworkX reads them
  (``label.get(b)``).  ``mate`` and ``blossomdual`` stay dicts: their key
  order — first assignment, and blossom creation — is iterated.
* A blossom is an id ``>= n`` taken from a free list and returned to it
  when the blossom is expanded; ``b.childs``, ``b.edges`` and
  ``b.mybestedges`` are lists indexed by that id.  Ids are never ordered:
  every loop over blossoms runs in creation order, as NetworkX's dicts do.
* ``G.neighbors(v)`` is a list of ``(neighbour, edge id)`` pairs in edge-id
  order, the order NetworkX's adjacency dict keeps.  Least-slack edges
  (``bestedge``, ``b.mybestedges``) are ``(v, w, edge id)`` triples, so
  ``slack`` reads the doubled weight by edge id; it is inlined in the scan
  and delta loops.  ``allowedge`` is a per-edge-id list: NetworkX always
  sets both orientations of a pair at once.
* Only the ``maxcardinality=False``, float-weight path is ported: delta1
  always exists (so no ``deltatype == -1`` cases), delta3 halves with
  ``/ 2.0``, and ``verifyOptimum``, which NetworkX runs for integer weights
  only, is left out.  Every ``assert`` NetworkX runs on this path stays.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

__all__ = ["max_weight_matching"]


def max_weight_matching(
    num_vertices: int, edges: Sequence[tuple[int, int]], weights: Sequence[float]
) -> set[tuple[int, int]]:
    """Maximum weight matching of a simple graph, as NetworkX computes it.

    Parameters
    ----------
    num_vertices:
        ``n``; the vertices are ``0 .. n-1``.
    edges:
        ``(u, v)`` pairs in edge-id order: no self-loops, no pair twice.
    weights:
        One Python ``float`` per edge.

    Returns
    -------
    set of (int, int)
        The matched pairs, as ``networkx.max_weight_matching`` returns
        them (same orientation, same insertion order).
    """
    #
    # The algorithm is taken from "Efficient Algorithms for Finding Maximum
    # Matching in Graphs" by Zvi Galil, ACM Computing Surveys, 1986.
    # It is based on the "blossom" method for finding augmenting paths and
    # the "primal-dual" method for finding a matching of maximum weight, both
    # methods invented by Jack Edmonds.
    #
    # Many terms used in the code comments are explained in the paper
    # by Galil. You will probably need the paper to make sense of this code.
    #
    n = num_vertices
    gnodes = range(n)
    if not n:
        return set()  # don't bother with empty graphs

    # Neighbour lists, the maximum edge weight, and the edge id of each
    # ordered pair (for the b.edges entries expandBlossom makes allowable).
    neighbours: list[list[tuple[int, int]]] = [[] for _ in gnodes]
    edgeid: dict[tuple[int, int], int] = {}
    maxweight = 0
    for e, (i, j) in enumerate(edges):
        neighbours[i].append((j, e))
        neighbours[j].append((i, e))
        edgeid[i, j] = edgeid[j, i] = e
        if weights[e] > maxweight:
            maxweight = weights[e]
    # 2 * weight, the term slack() subtracts (doubling a float is exact).
    wt2 = [2 * wt for wt in weights]

    # Ids 0 .. n-1 are vertices, n .. 2n-1 blossoms; a blossom has at least
    # three children, so fewer than n blossoms exist at any time.
    ids = 2 * n
    nones: list = [None] * ids
    falses = [False] * len(wt2)
    unusedblossoms = list(range(ids - 1, n - 1, -1))

    # If v is a matched vertex, mate[v] is its partner vertex.
    # If v is a single vertex, v does not occur as a key in mate.
    # Initially all vertices are single; updated during augmentation.
    mate: dict[int, int] = {}

    # If b is a top-level blossom,
    # label[b] is None if b is unlabeled (free),
    #             1 if b is an S-blossom,
    #             2 if b is a T-blossom.
    # The label of a vertex is found by looking at the label of its top-level
    # containing blossom.
    # If v is a vertex inside a T-blossom, label[v] is 2 iff v is reachable
    # from an S-vertex outside the blossom.
    # Labels are assigned during a stage and reset after each augmentation.
    label: list = list(nones)

    # If b is a labeled top-level blossom,
    # labeledge[b] = (v, w) is the edge through which b obtained its label
    # such that w is a vertex in b, or None if b's base vertex is single.
    # If w is a vertex inside a T-blossom and label[w] == 2,
    # labeledge[w] = (v, w) is an edge through which w is reachable from
    # outside the blossom.
    labeledge: list = list(nones)

    # If v is a vertex, inblossom[v] is the top-level blossom to which v
    # belongs.
    # If v is a top-level vertex, inblossom[v] == v since v is itself
    # a (trivial) top-level blossom.
    # Initially all vertices are top-level trivial blossoms.
    inblossom = list(gnodes)

    # If b is a sub-blossom,
    # blossomparent[b] is its immediate parent (sub-)blossom.
    # If b is a top-level blossom, blossomparent[b] is None.
    blossomparent: list = list(nones)

    # If b is a (sub-)blossom,
    # blossombase[b] is its base VERTEX (i.e. recursive sub-blossom).
    blossombase: list = [*gnodes, *nones[n:]]

    # b.childs is an ordered list of b's sub-blossoms, starting with
    # the base and going round the blossom.
    blossomchilds: list = list(nones)

    # b.edges is the list of b's connecting edges, such that
    # b.edges[i] = (v, w) where v is a vertex in b.childs[i]
    # and w is a vertex in b.childs[wrap(i+1)].
    blossomedges: list = list(nones)

    # If b is a top-level S-blossom,
    # b.mybestedges is a list of least-slack edges to neighboring
    # S-blossoms, or None if no such list has been computed yet.
    # This is used for efficient computation of delta3.
    mybestedges: list = list(nones)

    # If w is a free vertex (or an unreached vertex inside a T-blossom),
    # bestedge[w] = (v, w, e) is the least-slack edge from an S-vertex,
    # or None if there is no such edge.
    # If b is a (possibly trivial) top-level S-blossom,
    # bestedge[b] = (v, w, e) is the least-slack edge to a different S-blossom
    # (v inside b), or None if there is no such edge.
    # This is used for efficient computation of delta2 and delta3.
    bestedge: list = list(nones)

    # If v is a vertex,
    # dualvar[v] = 2 * u(v) where u(v) is the v's variable in the dual
    # optimization problem (if all edge weights are integers, multiplication
    # by two ensures that all values remain integers throughout the algorithm).
    # Initially, u(v) = maxweight / 2.
    dualvar = [maxweight] * n

    # If b is a non-trivial blossom,
    # blossomdual[b] = z(b) where z(b) is b's variable in the dual
    # optimization problem.  Keys are in blossom creation order.
    blossomdual: dict[int, float] = {}

    # If allowedge[e], then edge e is known to have zero slack in the
    # optimization problem; otherwise the edge may or may not have zero slack.
    allowedge = list(falses)

    # Queue of newly discovered S-vertices.
    queue: list[int] = []

    # Return 2 * slack of edge (v, w) with id e (does not work inside blossoms).
    def slack(v, w, e):
        return dualvar[v] + dualvar[w] - wt2[e]

    # Generate the leaf vertices of blossom b.
    def leaves(b):
        stack = [*blossomchilds[b]]
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(blossomchilds[t])
            else:
                yield t

    # Assign label t to the top-level blossom containing vertex w,
    # coming through an edge from vertex v.
    def assignLabel(w, t, v):
        b = inblossom[w]
        assert label[w] is None and label[b] is None
        label[w] = label[b] = t
        if v is not None:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == 1:
            # b became an S-vertex/blossom; add it(s vertices) to the queue.
            if b >= n:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        elif t == 2:
            # b became a T-vertex/blossom; assign label S to its mate.
            # (If b is a non-trivial blossom, its base is the only vertex
            # with an external mate.)
            base = blossombase[b]
            assignLabel(mate[base], 1, base)

    # Trace back from vertices v and w to discover either a new blossom
    # or an augmenting path. Return the base vertex of the new blossom,
    # or None if an augmenting path was found.
    def scanBlossom(v, w):
        # Trace back from v and w, placing breadcrumbs as we go.
        path = []
        base = None
        while v is not None:
            # Look for a breadcrumb in v's blossom or put a new breadcrumb.
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            # Trace one step back.
            if labeledge[b] is None:
                # The base of blossom b is single; stop tracing this path.
                assert blossombase[b] not in mate
                v = None
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                # b is a T-blossom; trace one more step back.
                v = labeledge[b][0]
            # Swap v and w so that we alternate between both paths.
            if w is not None:
                v, w = w, v
        # Remove breadcrumbs.
        for b in path:
            label[b] = 1
        # Return base vertex, if we found one.
        return base

    # Construct a new blossom with given base, through S-vertices v and w.
    # Label the new blossom as S; set its dual variable to zero;
    # relabel its T-vertices to S and add them to the queue.
    def addBlossom(base, v, w):
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        # Create blossom.
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        # Make list of sub-blossoms and their interconnecting edge endpoints.
        blossomchilds[b] = path = []
        blossomedges[b] = edgs = [(v, w)]
        # Trace back from v to base.
        while bv != bb:
            # Add bv to the new blossom.
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]]
            )
            # Trace one step back.
            v = labeledge[bv][0]
            bv = inblossom[v]
        # Add base sub-blossom; reverse lists.
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # Trace back from w to base.
        while bw != bb:
            # Add bw to the new blossom.
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]]
            )
            # Trace one step back.
            w = labeledge[bw][0]
            bw = inblossom[w]
        # Set label to S.
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        # Set dual variable to zero.
        blossomdual[b] = 0
        # Relabel vertices.
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                # This T-vertex now turns into an S-vertex because it becomes
                # part of an S-blossom; add it to the queue.
                queue.append(v)
            inblossom[v] = b
        # Compute b.mybestedges.
        bestedgeto = {}
        for bv in path:
            if bv >= n:
                if mybestedges[bv] is not None:
                    # Walk this subblossom's least-slack edges.
                    nblist = mybestedges[bv]
                    # The sub-blossom won't need this data again.
                    mybestedges[bv] = None
                else:
                    # This subblossom does not have a list of least-slack
                    # edges; get the information from the vertices.
                    nblist = [(v, w, e) for v in leaves(bv) for w, e in neighbours[v]]
            else:
                nblist = [(bv, w, e) for w, e in neighbours[bv]]
            for k in nblist:
                i, j, _ = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label[bj] == 1
                    and ((bj not in bestedgeto) or slack(*k) < slack(*bestedgeto[bj]))
                ):
                    bestedgeto[bj] = k
            # Forget about least-slack edge of the subblossom.
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        # Select bestedge[b].
        mybestedge = None
        bestedge[b] = None
        for k in mybestedges[b]:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    # Expand the given top-level blossom.
    def expandBlossom(b, endstage):
        # This is an obnoxiously complicated recursive function for the sake of
        # a stack-transformation.  So, we hack around the complexity by using
        # a trampoline pattern.  By yielding the arguments to each recursive
        # call, we keep the actual callstack flat.

        def _recurse(b, endstage):
            # Convert sub-blossoms into top-level blossoms.
            for s in blossomchilds[b]:
                blossomparent[s] = None
                if s >= n:
                    if endstage and blossomdual[s] == 0:
                        # Recursively expand this sub-blossom.
                        yield s
                    else:
                        for v in leaves(s):
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            # If we expand a T-blossom during a stage, its sub-blossoms must be
            # relabeled.
            if (not endstage) and label[b] == 2:
                childs = blossomchilds[b]
                bedges = blossomedges[b]
                # Start at the sub-blossom through which the expanding
                # blossom obtained its label, and relabel sub-blossoms untili
                # we reach the base.
                # Figure out through which sub-blossom the expanding blossom
                # obtained its label initially.
                entrychild = inblossom[labeledge[b][1]]
                # Decide in which direction we will go round the blossom.
                j = childs.index(entrychild)
                if j & 1:
                    # Start index is odd; go forward and wrap.
                    j -= len(childs)
                    jstep = 1
                else:
                    # Start index is even; go backward.
                    jstep = -1
                # Move along the blossom until we get to the base.
                v, w = labeledge[b]
                while j != 0:
                    # Relabel the T-sub-blossom.
                    if jstep == 1:
                        p, q = bedges[j]
                    else:
                        q, p = bedges[j - 1]
                    label[w] = None
                    label[q] = None
                    assignLabel(w, 2, v)
                    # Step to the next S-sub-blossom and note its forward edge.
                    allowedge[edgeid[p, q]] = True
                    j += jstep
                    if jstep == 1:
                        v, w = bedges[j]
                    else:
                        w, v = bedges[j - 1]
                    # Step to the next T-sub-blossom.
                    allowedge[edgeid[v, w]] = True
                    j += jstep
                # Relabel the base T-sub-blossom WITHOUT stepping through to
                # its mate (so don't call assignLabel).
                bw = childs[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                # Continue along the blossom until we get back to entrychild.
                j += jstep
                while childs[j] != entrychild:
                    # Examine the vertices of the sub-blossom to see whether
                    # it is reachable from a neighboring S-vertex outside the
                    # expanding blossom.
                    bv = childs[j]
                    if label[bv] == 1:
                        # This sub-blossom just got label S through one of its
                        # neighbors; leave it be.
                        j += jstep
                        continue
                    if bv >= n:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    # If the sub-blossom contains a reachable vertex, assign
                    # label T to the sub-blossom.
                    if label[v]:
                        assert label[v] == 2
                        assert inblossom[v] == bv
                        label[v] = None
                        label[mate[blossombase[bv]]] = None
                        assignLabel(v, 2, labeledge[v][0])
                    j += jstep
            # Remove the expanded blossom entirely, and free its id.
            label[b] = labeledge[b] = bestedge[b] = None
            blossomparent[b] = blossombase[b] = None
            blossomchilds[b] = blossomedges[b] = mybestedges[b] = None
            del blossomdual[b]
            unusedblossoms.append(b)

        # Now, we apply the trampoline pattern.  We simulate a recursive
        # callstack by maintaining a stack of generators, each yielding a
        # sequence of function arguments.  We grow the stack by appending a call
        # to _recurse on each argument tuple, and shrink the stack whenever a
        # generator is exhausted.
        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    # Swap matched/unmatched edges over an alternating path through blossom b
    # between vertex v and the base vertex. Keep blossom bookkeeping
    # consistent.
    def augmentBlossom(b, v):
        # This is an obnoxiously complicated recursive function for the sake of
        # a stack-transformation.  So, we hack around the complexity by using
        # a trampoline pattern.  By yielding the arguments to each recursive
        # call, we keep the actual callstack flat.

        def _recurse(b, v):
            # Bubble up through the blossom tree from vertex v to an immediate
            # sub-blossom of b.
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            # Recursively deal with the first sub-blossom.
            if t >= n:
                yield (t, v)
            # Decide in which direction we will go round the blossom.
            childs = blossomchilds[b]
            bedges = blossomedges[b]
            i = j = childs.index(t)
            if i & 1:
                # Start index is odd; go forward and wrap.
                j -= len(childs)
                jstep = 1
            else:
                # Start index is even; go backward.
                jstep = -1
            # Move along the blossom until we get to the base.
            while j != 0:
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                t = childs[j]
                if jstep == 1:
                    w, x = bedges[j]
                else:
                    x, w = bedges[j - 1]
                if t >= n:
                    yield (t, w)
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                t = childs[j]
                if t >= n:
                    yield (t, x)
                # Match the edge connecting those sub-blossoms.
                mate[w] = x
                mate[x] = w
            # Rotate the list of sub-blossoms to put the new base at the front.
            blossomchilds[b] = childs[i:] + childs[:i]
            blossomedges[b] = bedges[i:] + bedges[:i]
            blossombase[b] = blossombase[blossomchilds[b][0]]
            assert blossombase[b] == v

        # Now, we apply the trampoline pattern.  We simulate a recursive
        # callstack by maintaining a stack of generators, each yielding a
        # sequence of function arguments.  We grow the stack by appending a call
        # to _recurse on each argument tuple, and shrink the stack whenever a
        # generator is exhausted.
        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    # Swap matched/unmatched edges over an alternating path between two
    # single vertices. The augmenting path runs through S-vertices v and w.
    def augmentMatching(v, w):
        for s, j in ((v, w), (w, v)):
            # Match vertex s to vertex j. Then trace back from s
            # until we find a single vertex, swapping matched and unmatched
            # edges as we go.
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (labeledge[bs] is None and blossombase[bs] not in mate) or (
                    labeledge[bs][0] == mate[blossombase[bs]]
                )
                # Augment through the S-blossom from s to base.
                if bs >= n:
                    augmentBlossom(bs, s)
                # Update mate[s]
                mate[s] = j
                # Trace one step back.
                if labeledge[bs] is None:
                    # Reached single vertex; stop.
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                # Trace one more step back.
                s, j = labeledge[bt]
                # Augment through the T-blossom from j to base.
                assert blossombase[bt] == t
                if bt >= n:
                    augmentBlossom(bt, j)
                # Update mate[j]
                mate[j] = s

    # Main loop: continue until no further improvement is possible.
    while 1:
        # Each iteration of this loop is a "stage".
        # A stage finds an augmenting path and uses that to improve
        # the matching.

        # Remove labels from top-level blossoms/vertices.
        label[:] = nones
        labeledge[:] = nones

        # Forget all about least-slack edges.
        bestedge[:] = nones
        for b in blossomdual:
            mybestedges[b] = None

        # Loss of labeling means that we can not be sure that currently
        # allowable edges remain allowable throughout this stage.
        allowedge[:] = falses

        # Make queue empty.
        queue[:] = []

        # Label single blossoms/vertices with S and put them in the queue.
        for v in gnodes:
            if (v not in mate) and label[inblossom[v]] is None:
                assignLabel(v, 1, None)

        # Loop until we succeed in augmenting the matching.
        augmented = 0
        while 1:
            # Each iteration of this loop is a "substage".
            # A substage tries to find an augmenting path;
            # if found, the path is used to improve the matching and
            # the stage ends. If there is no augmenting path, the
            # primal-dual method is used to pump some slack out of
            # the dual variables.

            # Continue labeling until all vertices which are reachable
            # through an alternating path have got a label.
            while queue and not augmented:
                # Take an S vertex from the queue.
                v = queue.pop()
                assert label[inblossom[v]] == 1

                # Scan its neighbors:
                for w, e in neighbours[v]:
                    # w is a neighbor to v
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        # this edge is internal to a blossom; ignore it
                        continue
                    if not allowedge[e]:
                        kslack = dualvar[v] + dualvar[w] - wt2[e]
                        if kslack <= 0:
                            # edge k has zero slack => it is allowable
                            allowedge[e] = True
                    if allowedge[e]:
                        if label[bw] is None:
                            # (C1) w is a free vertex;
                            # label w with T and label its mate with S (R12).
                            assignLabel(w, 2, v)
                        elif label[bw] == 1:
                            # (C2) w is an S-vertex (not in the same blossom);
                            # follow back-links to discover either an
                            # augmenting path or a new blossom.
                            base = scanBlossom(v, w)
                            if base is not None:
                                # Found a new blossom; add it to the blossom
                                # bookkeeping and turn it into an S-blossom.
                                addBlossom(base, v, w)
                            else:
                                # Found an augmenting path; augment the
                                # matching and end this stage.
                                augmentMatching(v, w)
                                augmented = 1
                                break
                        elif label[w] is None:
                            # w is inside a T-blossom, but w itself has not
                            # yet been reached from outside the blossom;
                            # mark it as reached (we need this to relabel
                            # during T-blossom expansion).
                            assert label[bw] == 2
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label[bw] == 1:
                        # keep track of the least-slack non-allowable edge to
                        # a different S-blossom.
                        k = bestedge[bv]
                        if k is None or kslack < dualvar[k[0]] + dualvar[k[1]] - wt2[k[2]]:
                            bestedge[bv] = (v, w, e)
                    elif label[w] is None:
                        # w is a free vertex (or an unreached vertex inside
                        # a T-blossom) but we can not reach it yet;
                        # keep track of the least-slack edge that reaches w.
                        k = bestedge[w]
                        if k is None or kslack < dualvar[k[0]] + dualvar[k[1]] - wt2[k[2]]:
                            bestedge[w] = (v, w, e)

            if augmented:
                break

            # There is no augmenting path under these constraints;
            # compute delta and reduce slack in the optimization problem.
            # (Note that our vertex dual variables, edge slacks and delta's
            # are pre-multiplied by two.)
            deltaedge = deltablossom = None

            # Compute delta1: the minimum value of any vertex dual.
            deltatype = 1
            delta = min(dualvar)

            # Compute delta2: the minimum slack on any edge between
            # an S-vertex and a free vertex.
            for v in gnodes:
                if label[inblossom[v]] is None and bestedge[v] is not None:
                    k = bestedge[v]
                    d = dualvar[k[0]] + dualvar[k[1]] - wt2[k[2]]
                    if d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = k

            # Compute delta3: half the minimum slack on any edge between
            # a pair of S-blossoms (vertices first, then blossoms in
            # creation order: NetworkX's blossomparent key order).
            for b in chain(gnodes, blossomdual):
                if blossomparent[b] is None and label[b] == 1 and bestedge[b] is not None:
                    k = bestedge[b]
                    d = (dualvar[k[0]] + dualvar[k[1]] - wt2[k[2]]) / 2.0
                    if d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = k

            # Compute delta4: minimum z variable of any T-blossom.
            for b, z in blossomdual.items():
                if blossomparent[b] is None and label[b] == 2 and z < delta:
                    delta = z
                    deltatype = 4
                    deltablossom = b

            # Update dual variables according to delta.
            for v in gnodes:
                if label[inblossom[v]] == 1:
                    # S-vertex: 2*u = 2*u - 2*delta
                    dualvar[v] -= delta
                elif label[inblossom[v]] == 2:
                    # T-vertex: 2*u = 2*u + 2*delta
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label[b] == 1:
                        # top-level S-blossom: z = z + 2*delta
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        # top-level T-blossom: z = z - 2*delta
                        blossomdual[b] -= delta

            # Take action at the point where minimum delta occurred.
            if deltatype == 1:
                # No further improvement possible; optimum reached.
                break
            elif deltatype == 2:
                # Use the least-slack edge to continue the search.
                v, w, e = deltaedge
                assert label[inblossom[v]] == 1
                allowedge[e] = True
                queue.append(v)
            elif deltatype == 3:
                # Use the least-slack edge to continue the search.
                v, w, e = deltaedge
                allowedge[e] = True
                assert label[inblossom[v]] == 1
                queue.append(v)
            elif deltatype == 4:
                # Expand the least-z blossom.
                expandBlossom(deltablossom, False)

            # End of a this substage.

        # Paranoia check that the matching is symmetric.
        for v in mate:
            assert mate[mate[v]] == v

        # Stop when no more augmenting path can be found.
        if not augmented:
            break

        # End of a stage; expand all S-blossoms which have zero dual.
        for b in list(blossomdual.keys()):
            if b not in blossomdual:
                continue  # already expanded
            if blossomparent[b] is None and label[b] == 1 and blossomdual[b] == 0:
                expandBlossom(b, True)

    # networkx.algorithms.matching.matching_dict_to_set: the first of each
    # mirrored pair in mate's key order, added to a set in that order.
    matching = set()
    for edge in mate.items():
        u, v = edge
        if (v, u) in matching or edge in matching:
            continue
        matching.add(edge)
    return matching
