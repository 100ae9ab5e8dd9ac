"""An indexed max-heap over variable activities (the VSIDS order).

``heapq`` cannot express the two operations a CDCL branching order needs —
*decrease-key* (bumping a variable's activity must move it towards the root
without pushing a duplicate) and *membership-aware insert* (re-inserting a
variable on backtrack must be a no-op when it is already queued).  The
classic MiniSat answer is a binary heap with a position index, which is what
this module provides.

Ordering is by descending activity with ascending variable index as the tie
break, so the branching order is fully deterministic for a fixed activity
trajectory.  The heap stores a *reference* to the solver's activity list.

These methods serve the cold paths (bulk build, ``new_var``).  The solver's
hot paths — the bump in conflict analysis, the re-insertion on backtrack
and the branching pop — sift :attr:`heap` and :attr:`position` in place, in
the same order: in Python the call layers cost more than the sifting.
Global rescaling of activities preserves their order and needs no action.
"""

from __future__ import annotations


class VarOrderHeap:
    """Binary max-heap of variable indices keyed by an external activity list."""

    __slots__ = ("activity", "heap", "position")

    def __init__(self, activity: list[float]) -> None:
        self.activity = activity
        self.heap: list[int] = []
        #: position[var] is the index of ``var`` inside ``heap``, or -1.
        self.position: list[int] = [-1] * len(activity)

    def __len__(self) -> int:
        return len(self.heap)

    def __contains__(self, var: int) -> bool:
        return self.position[var] >= 0

    def grow(self) -> None:
        """Extend the position index after new variables were appended.

        The heap shares the caller's activity list by reference, so after the
        caller appends activities for freshly created variables this brings
        the position index back to the same length.  Existing entries are
        untouched.
        """
        while len(self.position) < len(self.activity):
            self.position.append(-1)

    def build(self, variables: list[int]) -> None:
        """Bulk-load the heap from scratch in O(n)."""
        self.heap = list(variables)
        for index in range(len(self.position)):
            self.position[index] = -1
        for index, var in enumerate(self.heap):
            self.position[var] = index
        for index in range(len(self.heap) // 2 - 1, -1, -1):
            self._sift_down(index)

    def insert(self, var: int) -> None:
        """Add ``var`` if absent; restores its heap position after backtrack."""
        if self.position[var] >= 0:
            return
        self.heap.append(var)
        self.position[var] = len(self.heap) - 1
        self._sift_up(len(self.heap) - 1)

    def pop(self) -> int:
        """Remove and return the variable with the highest activity."""
        heap = self.heap
        top = heap[0]
        self.position[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            self.position[last] = 0
            self._sift_down(0)
        return top

    # ------------------------------------------------------------------ #
    # Sifting
    # ------------------------------------------------------------------ #

    def _sift_up(self, index: int) -> None:
        heap = self.heap
        position = self.position
        activity = self.activity
        var = heap[index]
        act = activity[var]
        while index > 0:
            parent_index = (index - 1) >> 1
            parent = heap[parent_index]
            parent_act = activity[parent]
            if parent_act > act or (parent_act == act and parent < var):
                break
            heap[index] = parent
            position[parent] = index
            index = parent_index
        heap[index] = var
        position[var] = index

    def _sift_down(self, index: int) -> None:
        heap = self.heap
        position = self.position
        activity = self.activity
        size = len(heap)
        var = heap[index]
        act = activity[var]
        while True:
            child_index = 2 * index + 1
            if child_index >= size:
                break
            child = heap[child_index]
            child_act = activity[child]
            right_index = child_index + 1
            if right_index < size:
                right = heap[right_index]
                right_act = activity[right]
                if right_act > child_act or (right_act == child_act
                                             and right < child):
                    child_index, child, child_act = \
                        right_index, right, right_act
            if child_act < act or (child_act == act and child > var):
                break
            heap[index] = child
            position[child] = index
            index = child_index
        heap[index] = var
        position[var] = index
