"""Optional wait-for-graph deadlock detection.

TABS itself resolves deadlock with time-outs, but the paper cites systems
that "implement local and distributed deadlock detectors that identify and
break cycles of waiting transactions" (Obermarck 82; R*).  This detector is
that extension: it assembles a wait-for graph from one or more lock
managers and reports cycles so a caller can abort a victim instead of
waiting out the time-out.

Disabled by default; the ablation benchmark compares time-out-based and
detector-based resolution.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.locking.manager import LockManager


class DeadlockDetector:
    """Cycle detection over the union of several lock managers' wait graphs.

    Covering several managers on one node gives local detection; covering
    managers across nodes gives (centralised) distributed detection, the
    simplest of the schemes Obermarck surveys.
    """

    def __init__(self, managers: Iterable[LockManager] = ()) -> None:
        self._managers: list[LockManager] = list(managers)

    def wait_for_graph(self) -> dict[Hashable, set[Hashable]]:
        """Edges ``waiter -> holders`` across all attached managers.

        Waiters enter in lock-table order (:meth:`LockManager.wait_graph`),
        so the search's roots, and the cycle it finds first, do not depend
        on how transaction ids hash.
        """
        graph: dict[Hashable, set[Hashable]] = {}
        for manager in self._managers:
            for _key, waiter, holders in manager.wait_graph():
                graph.setdefault(waiter.tid, set()).update(
                    holder for holder in holders if holder != waiter.tid)
        return graph

    def find_cycle(self) -> list[Hashable] | None:
        """One cycle of waiting transactions, or None.

        Iterative DFS with colouring, roots in lock-table order.
        """
        graph = self.wait_for_graph()
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {tid: WHITE for tid in graph}
        parent: dict[Hashable, Hashable] = {}

        for root in graph:
            if colour.get(root, BLACK) != WHITE:
                continue
            stack = [(root, iter(sorted(graph.get(root, ()), key=repr)))]
            colour[root] = GREY
            while stack:
                tid, children = stack[-1]
                advanced = False
                for child in children:
                    if colour.get(child, BLACK) == GREY:
                        # Found a back edge: unwind the cycle.
                        cycle = [child, tid]
                        walker = tid
                        while walker != child:
                            walker = parent[walker]
                            cycle.append(walker)
                        return list(reversed(cycle[1:]))
                    if colour.get(child, BLACK) == WHITE:
                        colour[child] = GREY
                        parent[child] = tid
                        stack.append(
                            (child, iter(sorted(graph.get(child, ()),
                                                key=repr))))
                        advanced = True
                        break
                if not advanced:
                    colour[tid] = BLACK
                    stack.pop()
        return None

    def choose_victim(self) -> Hashable | None:
        """The transaction to abort to break the first detected cycle.

        Picks the youngest member by repr ordering -- deterministic and, for
        the monotonically numbered TABS transaction identifiers, equivalent
        to aborting the transaction that has done the least work.
        """
        cycle = self.find_cycle()
        if not cycle:
            return None
        return max(cycle, key=repr)
