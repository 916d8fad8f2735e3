//! Warp scheduling order for the issue stage.

use crate::config::SchedPolicy;

/// Computes the order in which warps are considered each cycle.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scheduler {
    /// Greedy warp for GTO: the warp that issued most recently.
    greedy: Option<usize>,
    /// Rotation offset for round-robin.
    rr_start: usize,
}

impl Scheduler {
    /// The order to consider warp indices `0..n` this cycle.
    ///
    /// `last_issue` gives, for each warp, the last cycle it issued (for the
    /// "oldest" half of greedy-then-oldest). Allocating reference for
    /// [`order_into`](Self::order_into), kept for the equivalence tests
    /// (the issue stage uses the scratch-buffer variant).
    #[cfg(test)]
    pub fn order(&self, policy: SchedPolicy, n: usize, last_issue: &[u64]) -> Vec<usize> {
        let mut out = Vec::new();
        self.order_into(policy, n, last_issue, &mut out);
        out
    }

    /// [`order`](Self::order) writing into a caller-provided buffer. `out`
    /// is cleared first. The unstable sort is deterministic here because
    /// the sort key includes the warp index, making every key distinct.
    /// Reference implementation over all `n` warps; the issue stage uses
    /// [`order_active_into`](Self::order_active_into), which the
    /// equivalence tests check against this.
    #[cfg(test)]
    pub fn order_into(
        &self,
        policy: SchedPolicy,
        n: usize,
        last_issue: &[u64],
        out: &mut Vec<usize>,
    ) {
        out.clear();
        match policy {
            SchedPolicy::Gto => {
                out.extend(0..n);
                // Oldest first: smallest last-issue cycle, ties by index.
                out.sort_unstable_by_key(|&w| (last_issue[w], w));
                if let Some(g) = self.greedy {
                    if g < n {
                        let pos = out.iter().position(|&w| w == g).expect("greedy in range");
                        out.remove(pos);
                        out.insert(0, g);
                    }
                }
            }
            SchedPolicy::RoundRobin => {
                out.extend((0..n).map(|i| (self.rr_start + i) % n.max(1)));
            }
        }
    }

    /// [`order_into`](Self::order_into) restricted to the live warps.
    ///
    /// `active` holds the live warp indices in ascending order and `keys[i]`
    /// is the last-issue cycle of `active[i]`. The result is exactly the
    /// full `order_into(policy, n, ..)` sequence with non-live warps
    /// removed — interchangeable with it, because the issue stage skips
    /// inactive warps anyway — computed in O(live) / O(live log live)
    /// instead of O(n), where n (warps ever dispatched) grows with every
    /// block a long grid streams through the SM:
    ///
    /// - GTO sorts by the distinct key `(last_issue, warp)`, so sorting the
    ///   live subset preserves the relative order the full sort would give,
    ///   and fronting the greedy warp only matters when it is live.
    /// - Round-robin emits `(rr_start + i) % n`, i.e. the indices `>=
    ///   rr_start` ascending then the rest; filtering that to a sorted live
    ///   list is a partition at `rr_start`.
    pub fn order_active_into(
        &self,
        policy: SchedPolicy,
        active: &[usize],
        keys: &[u64],
        out: &mut Vec<usize>,
    ) {
        self.order_positions_into(policy, active, keys, out);
        for slot in out.iter_mut() {
            *slot = active[*slot];
        }
    }

    /// [`order_active_into`](Self::order_active_into) yielding positions
    /// into `active` instead of warp indices, for callers that keep
    /// per-warp data in live-list order (`SmCore::skip_cycles`).
    pub fn order_positions_into(
        &self,
        policy: SchedPolicy,
        active: &[usize],
        keys: &[u64],
        out: &mut Vec<usize>,
    ) {
        debug_assert_eq!(active.len(), keys.len());
        debug_assert!(active.windows(2).all(|w| w[0] < w[1]), "live list must be ascending");
        out.clear();
        match policy {
            SchedPolicy::Gto => {
                out.extend(0..active.len());
                out.sort_unstable_by_key(|&i| (keys[i], active[i]));
                if let Some(g) = self.greedy {
                    if let Some(pos) = out.iter().position(|&i| active[i] == g) {
                        let i = out.remove(pos);
                        out.insert(0, i);
                    }
                }
            }
            SchedPolicy::RoundRobin => {
                let p = active.partition_point(|&w| w < self.rr_start);
                out.extend(p..active.len());
                out.extend(0..p);
            }
        }
    }

    /// Record that `warp` issued this cycle (it becomes the greedy warp).
    pub fn issued(&mut self, warp: usize) {
        self.greedy = Some(warp);
    }

    /// Advance to the next cycle (rotates round-robin).
    pub fn next_cycle(&mut self, n: usize) {
        if n > 0 {
            self.rr_start = (self.rr_start + 1) % n;
        }
    }

    /// Advance `cycles` cycles at once — equivalent to that many
    /// [`next_cycle`](Self::next_cycle) calls (the event engine's bulk
    /// advance over a skipped stretch).
    pub fn advance_cycles(&mut self, cycles: u64, n: usize) {
        if n > 0 {
            self.rr_start = (self.rr_start + (cycles % n as u64) as usize) % n;
        }
    }
}

gsi_json::json_struct!(Scheduler { greedy, rr_start });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gto_prefers_greedy_then_oldest() {
        let mut s = Scheduler::default();
        let last = vec![5, 1, 3];
        assert_eq!(s.order(SchedPolicy::Gto, 3, &last), vec![1, 2, 0]);
        s.issued(2);
        assert_eq!(s.order(SchedPolicy::Gto, 3, &last), vec![2, 1, 0]);
    }

    #[test]
    fn round_robin_rotates() {
        let mut s = Scheduler::default();
        let last = vec![0; 3];
        assert_eq!(s.order(SchedPolicy::RoundRobin, 3, &last), vec![0, 1, 2]);
        s.next_cycle(3);
        assert_eq!(s.order(SchedPolicy::RoundRobin, 3, &last), vec![1, 2, 0]);
        s.next_cycle(3);
        assert_eq!(s.order(SchedPolicy::RoundRobin, 3, &last), vec![2, 0, 1]);
    }

    #[test]
    fn empty_warp_set() {
        let s = Scheduler::default();
        assert!(s.order(SchedPolicy::Gto, 0, &[]).is_empty());
        assert!(s.order(SchedPolicy::RoundRobin, 0, &[]).is_empty());
    }

    #[test]
    fn order_into_matches_order_and_reuses_the_buffer() {
        let mut s = Scheduler::default();
        s.issued(1);
        let last = vec![7, 2, 9, 4];
        let mut buf = vec![99; 16]; // stale contents must be discarded
        for policy in [SchedPolicy::Gto, SchedPolicy::RoundRobin] {
            s.order_into(policy, 4, &last, &mut buf);
            assert_eq!(buf, s.order(policy, 4, &last));
        }
    }

    #[test]
    fn order_active_matches_full_order_filtered() {
        // Pseudo-random last-issue table over 12 warps; warps 2, 5, 6 and
        // 9 have exited. The live-only order must equal the full order with
        // the dead warps removed, for every policy, rotation offset, and
        // greedy choice (live, dead, or none).
        let n = 12;
        let last: Vec<u64> = (0..n as u64).map(|w| (w * 7 + 3) % 5).collect();
        let dead = [2usize, 5, 6, 9];
        let active: Vec<usize> = (0..n).filter(|w| !dead.contains(w)).collect();
        let keys: Vec<u64> = active.iter().map(|&w| last[w]).collect();
        let mut full = Vec::new();
        let mut live = Vec::new();
        for policy in [SchedPolicy::Gto, SchedPolicy::RoundRobin] {
            for greedy in std::iter::once(None).chain((0..n).map(Some)) {
                let mut s = Scheduler::default();
                if let Some(g) = greedy {
                    s.issued(g);
                }
                for _ in 0..n {
                    s.order_into(policy, n, &last, &mut full);
                    full.retain(|w| active.contains(w));
                    s.order_active_into(policy, &active, &keys, &mut live);
                    assert_eq!(full, live, "policy {policy:?}, greedy {greedy:?}");
                    s.next_cycle(n);
                }
            }
        }
    }

    #[test]
    fn gto_with_stale_greedy_out_of_range() {
        let mut s = Scheduler::default();
        s.issued(5);
        let last = vec![0, 0];
        // Greedy index 5 no longer exists; order falls back to oldest.
        assert_eq!(s.order(SchedPolicy::Gto, 2, &last), vec![0, 1]);
    }
}
