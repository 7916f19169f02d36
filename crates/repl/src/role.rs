//! [`Role`]: a node's cluster role and every election rule over it.

use std::time::Duration;

/// A node's place in the cluster, as the election rules see it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Role {
    /// Once false it stays false: there is no demotion.
    replica: bool,
    /// Highest epoch seen, stamped into every welcome and batch sent. A
    /// primary keeps the one it was promoted in: adopting a later one
    /// would un-fence its stream.
    epoch: u64,
    /// Highest epoch voted in, own candidacies included: one vote per
    /// epoch is what makes one winner per epoch possible.
    voted: u64,
    /// Whether that vote went to this node's own candidacy.
    self_vote: bool,
    /// The replica's primary and its `NotPrimary` hint; empty on a primary.
    upstream: String,
    /// The electorate besides this node.
    pub peers: Vec<String>,
    /// This node's own `host:port`, what a winner announces.
    pub advertised: String,
}

/// What the replica does with a welcome or batch, by its epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Apply it; its epoch is adopted.
    Apply,
    /// A deposed primary's: refuse the session.
    Stale,
    /// This node is a primary now: the stream ends.
    Stop,
}

impl Role {
    /// A replica of `upstream`, or a primary when there is none.
    #[must_use]
    pub fn new(upstream: Option<String>, peers: Vec<String>, advertised: String) -> Role {
        Role {
            replica: upstream.is_some(),
            epoch: 0,
            voted: 0,
            self_vote: false,
            upstream: upstream.unwrap_or_default(),
            peers,
            advertised,
        }
    }

    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    #[must_use]
    pub fn upstream(&self) -> &str {
        &self.upstream
    }

    /// The votes a candidacy needs: a majority of the peers plus itself.
    #[must_use]
    pub fn majority(&self) -> usize {
        let electorate = self.peers.len() + 1;
        electorate / 2 + 1
    }

    /// The highest epoch this node has seen or voted in, what a vote
    /// reply reports: a candidate it denied then stands above its vote.
    #[must_use]
    pub fn known_epoch(&self) -> u64 {
        self.epoch.max(self.voted)
    }

    /// How long the upstream must stay silent before this node suspects
    /// it: `base` plus the stagger of its next candidacy.
    #[must_use]
    pub fn suspect_window(&self, seed: u64, base: Duration) -> Duration {
        base + suspect_jitter(seed, self.known_epoch().saturating_add(1), base)
    }

    /// One vote per epoch, none from a primary: records this node's own
    /// vote in `epoch` if it is above every epoch voted in.
    pub fn try_vote(&mut self, epoch: u64) -> bool {
        let cast = self.replica && epoch > self.voted;
        if cast {
            self.voted = epoch;
            self.self_vote = true;
        }
        cast
    }

    /// Opens a candidacy: this node's own vote, in the epoch above every
    /// one it has seen or voted in (a lost candidacy used its epoch up).
    pub fn stand(&mut self) -> Option<u64> {
        let epoch = self.known_epoch().saturating_add(1);
        self.try_vote(epoch).then_some(epoch)
    }

    /// The `REPL_CANDIDATE` rule for a candidate in `epoch` whose summed
    /// versions are `candidate` where this node's are `own`: a vote if the
    /// epoch is newer than any seen or voted in and the candidate has at
    /// least this node's history, adopting the epoch (the old primary's
    /// stream is stale here even if the candidate loses). A candidate with
    /// less history spends the vote unused: this node stands above it.
    pub fn grant(&mut self, epoch: u64, candidate: u64, own: u64) -> bool {
        if epoch <= self.epoch || !self.try_vote(epoch) {
            return false;
        }
        self.self_vote = false;
        let granted = candidate >= own;
        if granted {
            self.epoch = epoch;
        }
        granted
    }

    /// Promotes the winner of the candidacy opened in `epoch`, unless the
    /// node has voted in a later epoch since (that vote may elect the
    /// later candidate) or seen `epoch` or a later one from another node.
    pub fn win(&mut self, epoch: u64) -> bool {
        let won = self.replica && self.self_vote && self.voted == epoch && self.epoch < epoch;
        if won {
            self.replica = false;
            self.epoch = epoch;
            self.upstream.clear();
        }
        won
    }

    /// A manual `REPL_PROMOTE`: a candidacy that wins without canvassing,
    /// so the node never shares an epoch with one it stood in before or a
    /// vote it granted. False on a primary.
    pub fn promote(&mut self) -> bool {
        self.stand().is_some_and(|epoch| self.win(epoch))
    }

    /// Adopts `epoch` if it is the highest seen; a primary adopts none.
    pub fn observe(&mut self, epoch: u64) {
        if self.replica {
            self.epoch = self.epoch.max(epoch);
        }
    }

    /// The stale-epoch fence on a welcome or batch stamped `epoch`.
    pub fn admit(&mut self, epoch: u64) -> Admit {
        if !self.replica {
            Admit::Stop
        } else if epoch < self.epoch {
            Admit::Stale
        } else {
            self.epoch = epoch;
            Admit::Apply
        }
    }

    /// `REPL_EPOCH`: the winner of `epoch` lives at `primary`. Refused by
    /// a primary and by a replica that has seen a later epoch.
    pub fn announce(&mut self, epoch: u64, primary: &str) -> Result<(), &'static str> {
        if !self.replica {
            return Err("cannot repoint a primary; demotion is not supported");
        }
        if epoch < self.epoch {
            return Err("stale epoch announce");
        }
        self.epoch = epoch;
        if !primary.is_empty() && primary != self.advertised {
            self.upstream = primary.to_string();
        }
        Ok(())
    }

    /// Follows a new primary at `addr`: a `REPL_PROMOTE` repoint or a
    /// `NotPrimary` hint. Refused by a primary.
    pub fn repoint(&mut self, addr: &str) -> Result<(), &'static str> {
        if !self.replica {
            return Err("cannot repoint a primary; demotion is not supported");
        }
        self.upstream = addr.to_string();
        Ok(())
    }
}

/// Deterministic jitter in `[0, base)` derived from the backoff seed and
/// the epoch the node would stand in (SplitMix64 finalizer): two replicas
/// with different seeds suspect — and stand as candidates — at staggered
/// times, and the stagger is drawn again for every epoch. A constant per
/// node would not do: two candidates whose draws put them in the same
/// epoch together (both self-voted, both denied) would wait the same
/// delays and meet again in the next epoch, and the one after.
#[must_use]
pub fn suspect_jitter(seed: u64, epoch: u64, base: Duration) -> Duration {
    let mut z =
        (seed ^ epoch.wrapping_mul(0xd1b5_4a32_d192_ed03)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    base.mul_f64((z >> 11) as f64 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const PEERS: [&str; 2] = ["10.0.0.1:7000", "10.0.0.2:7000"];
    const ME: &str = "10.0.0.3:7000";

    /// One transition, with what it carries from outside the node.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Stand,
        /// A peer's `REPL_CANDIDATE`, its history ahead of or behind ours.
        Grant {
            epoch: u64,
            ahead: bool,
        },
        Win(u64),
        Promote,
        Observe(u64),
        Announce {
            epoch: u64,
            peer: usize,
        },
        Repoint(usize),
        Admit(u64),
    }

    /// Every transition over epochs 0..=3 and the two peers. `Win` also
    /// takes the epochs a candidacy reaches in six steps.
    fn steps() -> Vec<Step> {
        let mut all = vec![
            Step::Stand,
            Step::Promote,
            Step::Repoint(0),
            Step::Repoint(1),
        ];
        for epoch in 0..=3 {
            all.extend([
                Step::Grant { epoch, ahead: true },
                Step::Grant {
                    epoch,
                    ahead: false,
                },
                Step::Observe(epoch),
                Step::Announce { epoch, peer: 0 },
                Step::Announce { epoch, peer: 1 },
                Step::Admit(epoch),
            ]);
        }
        all.extend((0..=10).map(Step::Win));
        all
    }

    /// A role and the votes it cast so far, as bit sets of epochs: the
    /// ones granted to another node and the ones it cast for itself.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Node {
        role: Role,
        granted: u32,
        own: u32,
    }

    impl Node {
        /// The highest epoch voted in, and whether that vote was its own.
        fn latest_vote(&self) -> Option<(u64, bool)> {
            let all = self.granted | self.own;
            let epoch = u64::from(all.checked_ilog2()?);
            Some((epoch, self.own & bit(epoch) != 0))
        }
    }

    fn bit(epoch: u64) -> u32 {
        assert!(epoch < 32, "epoch {epoch} outside the vote bit set");
        1 << epoch
    }

    /// Which transitions took effect somewhere in the enumeration.
    #[derive(Default)]
    struct Seen {
        grants: usize,
        wins: usize,
        promotions: usize,
        repoints: usize,
        stale: usize,
        stops: usize,
    }

    /// Applies `step` to `pre` and checks every invariant across it.
    fn apply(pre: &Node, step: Step, seen: &mut Seen) -> Result<Node, String> {
        let mut n = pre.clone();
        let r = &mut n.role;
        match step {
            Step::Stand => {
                if let Some(epoch) = r.stand() {
                    n.own |= bit(epoch);
                }
            }
            Step::Grant { epoch, ahead } => {
                let (candidate, own) = if ahead { (2, 1) } else { (0, 1) };
                if r.grant(epoch, candidate, own) {
                    if !pre.role.replica {
                        return Err("a primary granted a vote".into());
                    }
                    seen.grants += 1;
                    n.granted |= bit(epoch);
                }
            }
            Step::Win(epoch) => {
                if r.win(epoch) {
                    if pre.latest_vote() != Some((epoch, true)) {
                        return Err(format!(
                            "won {epoch} with latest vote {:?}",
                            pre.latest_vote()
                        ));
                    }
                    seen.wins += 1;
                }
            }
            Step::Promote => {
                if r.promote() {
                    let before = pre.latest_vote().map_or(0, |(e, _)| e);
                    if r.epoch <= before {
                        return Err(format!(
                            "promoted in {}, not above its vote in {before}",
                            r.epoch
                        ));
                    }
                    seen.promotions += 1;
                    n.own |= bit(r.epoch);
                }
            }
            Step::Observe(epoch) => r.observe(epoch),
            Step::Announce { epoch, peer } => {
                let _ = r.announce(epoch, PEERS[peer]);
                if epoch < pre.role.epoch && r.upstream != pre.role.upstream {
                    return Err(format!("followed a stale announce from {epoch}"));
                }
            }
            Step::Repoint(peer) => {
                if r.repoint(PEERS[peer]).is_ok() {
                    seen.repoints += 1;
                }
            }
            Step::Admit(epoch) => match r.admit(epoch) {
                Admit::Apply => {}
                Admit::Stale => seen.stale += 1,
                Admit::Stop => seen.stops += 1,
            },
        }
        let (pre_r, r) = (&pre.role, &n.role);
        if r.epoch < pre_r.epoch || r.voted < pre_r.voted {
            return Err("the epoch or the last vote went down".into());
        }
        if !r.replica && n.granted & bit(r.epoch) != 0 {
            return Err(format!(
                "primary in {}, where it voted for another",
                r.epoch
            ));
        }
        let repointing = matches!(step, Step::Announce { .. } | Step::Repoint(_));
        let promoted = pre_r.replica && !r.replica && r.upstream.is_empty();
        if r.upstream != pre_r.upstream && !repointing && !promoted {
            return Err(format!("{step:?} moved the upstream"));
        }
        Ok(n)
    }

    /// Walks every sequence of up to `depth` steps from `n`. A node
    /// reached again with no more steps left than before has nothing
    /// new below it, since every check looks only at the node.
    fn explore(
        n: &Node,
        depth: usize,
        path: &mut Vec<Step>,
        visited: &mut HashMap<Node, usize>,
        seen: &mut Seen,
    ) {
        if depth == 0 || visited.get(n).is_some_and(|&d| d >= depth) {
            return;
        }
        visited.insert(n.clone(), depth);
        for step in steps() {
            path.push(step);
            match apply(n, step, seen) {
                Ok(next) => explore(&next, depth - 1, path, visited, seen),
                Err(why) => panic!("{why} after {path:?}"),
            }
            path.pop();
        }
    }

    #[test]
    fn every_sequence_of_six_transitions_keeps_the_election_rules() {
        let peers = PEERS.map(String::from).to_vec();
        let mut visited = HashMap::new();
        let mut seen = Seen::default();
        for upstream in [Some(PEERS[0].to_string()), None] {
            let role = Role::new(upstream, peers.clone(), ME.to_string());
            let start = Node {
                role,
                granted: 0,
                own: 0,
            };
            explore(&start, 6, &mut Vec::new(), &mut visited, &mut seen);
        }
        // Each rule took effect somewhere, so each check above ran.
        let Seen {
            grants,
            wins,
            promotions,
            repoints,
            stale,
            stops,
        } = seen;
        assert!(grants > 0 && wins > 0 && promotions > 0);
        assert!(repoints > 0 && stale > 0 && stops > 0);
    }
}
