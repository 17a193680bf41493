"""Full-coordination oracle policies (upper bounds, not protocols).

The paper's premise is that explicit coordination "is often prohibitive"
in latency; these policies deliberately violate the no-communication
constraint to show what coordination would buy. They bound from above
every legal policy — classical or quantum — and calibrate how much of
the gap the CHSH pairs close for free.

Also realizes the §5 remark that testbeds can "cheat" by classically
simulating quantum correlations when the full request stream is known
in advance: the oracle sees the entire per-round task vector.
"""

from __future__ import annotations

import numpy as np

from repro.lb.policies import AssignmentPolicy

__all__ = ["OmniscientAssignment"]


class OmniscientAssignment(AssignmentPolicy):
    """Sees every task and every queue; batches C pairs, spreads E tasks.

    Greedy coordinated heuristic per round:

    1. Pair up the type-C tasks (any nonzero task class, as both engines
       read it); send each pair to the currently least-loaded server
       (they will be served together).
    2. A leftover single C goes to the next least-loaded server.
    3. Type-E tasks go one each to the least-loaded remaining servers.

    Load accounting uses the observed queue lengths plus the work
    assigned so far this round (type-E counts one slot, a C-pair one
    slot, a lone C one slot). The engines hand it one-step chunks; every
    row of a longer chunk would start from the same observation.
    """

    def __init__(self, num_balancers: int, num_servers: int) -> None:
        super().__init__(num_balancers, num_servers)
        self._queues = np.zeros(num_servers)

    def observe_queues(self, queue_lengths):
        if len(queue_lengths) != self.num_servers:
            from repro.errors import ConfigurationError

            raise ConfigurationError("queue observation size mismatch")
        self._queues = np.asarray(queue_lengths, dtype=float)

    def assign_batch(self, tasks, rng):
        tasks = self._check_batch(tasks)
        choices = np.empty(tasks.shape, dtype=np.int32)
        for row, out in zip(tasks, choices):
            load = self._queues.copy()
            c_indices = np.flatnonzero(row)
            # C pairs first: each pair consumes one service slot.
            for k in range(0, len(c_indices) - 1, 2):
                server = int(np.argmin(load))
                out[c_indices[k : k + 2]] = server
                load[server] += 1.0
            if len(c_indices) % 2 == 1:
                server = int(np.argmin(load))
                out[c_indices[-1]] = server
                load[server] += 1.0
            # E tasks spread across the least-loaded servers.
            for index in np.flatnonzero(row == 0):
                server = int(np.argmin(load))
                out[index] = server
                load[server] += 1.0
        return choices
