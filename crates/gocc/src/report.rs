//! Table-1-style analysis funnels.

use crate::analyzer::TransformPlan;

/// Counters mirroring the columns of the paper's Table 1, for one unit or
/// aggregated over a package.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FunnelReport {
    /// Lock points (acquires) found.
    pub lock_points: usize,
    /// Unlock points (releases) found.
    pub unlock_points: usize,
    /// Releases that came from `defer`.
    pub deferred_unlocks: usize,
    /// Functions discarded for multiple `defer Unlock()` (§5.2.5).
    pub discarded_multi_defer: usize,
    /// LU-points pruned by DELock/UEUnlock or left unpaired ("violates
    /// dominance").
    pub dominance_violations: usize,
    /// Matched candidate pairs entering conditions (3)/(4).
    pub candidate_pairs: usize,
    /// Rejected: unfriendly instruction in the section body.
    pub unfit_intra: usize,
    /// Rejected: unfriendly/unknown callee in the transitive closure.
    pub unfit_interproc: usize,
    /// Rejected: aliasing LU-point inside the section.
    pub nested_alias_intra: usize,
    /// Rejected: aliasing LU-point in a callee.
    pub nested_alias_interproc: usize,
    /// Pairs accepted for transformation (without profiles).
    pub transformed: usize,
    /// Accepted pairs whose unlock is deferred.
    pub transformed_deferred: usize,
    /// Accepted pairs surviving the profile filter.
    pub transformed_hot: usize,
    /// Hot accepted pairs whose unlock is deferred.
    pub transformed_hot_deferred: usize,
}

impl FunnelReport {
    /// Accumulates another funnel into this one.
    pub fn merge(&mut self, other: &FunnelReport) {
        self.lock_points += other.lock_points;
        self.unlock_points += other.unlock_points;
        self.deferred_unlocks += other.deferred_unlocks;
        self.discarded_multi_defer += other.discarded_multi_defer;
        self.dominance_violations += other.dominance_violations;
        self.candidate_pairs += other.candidate_pairs;
        self.unfit_intra += other.unfit_intra;
        self.unfit_interproc += other.unfit_interproc;
        self.nested_alias_intra += other.nested_alias_intra;
        self.nested_alias_interproc += other.nested_alias_interproc;
        self.transformed += other.transformed;
        self.transformed_deferred += other.transformed_deferred;
        self.transformed_hot += other.transformed_hot;
        self.transformed_hot_deferred += other.transformed_hot_deferred;
    }

    /// Renders one row in the spirit of Table 1.
    #[must_use]
    pub fn table_row(&self, name: &str) -> String {
        format!(
            "{name:<12} {lp:>6} {up:>6} ({d:>3}) {dv:>9} {cp:>10} {ui:>4}/{uip:<4} {ni:>4}/{nip:<4} {t:>5} ({td:>3}) {th:>5} ({thd:>3})",
            lp = self.lock_points,
            up = self.unlock_points,
            d = self.deferred_unlocks,
            dv = self.dominance_violations,
            cp = self.candidate_pairs,
            ui = self.unfit_intra,
            uip = self.unfit_interproc,
            ni = self.nested_alias_intra,
            nip = self.nested_alias_interproc,
            t = self.transformed,
            td = self.transformed_deferred,
            th = self.transformed_hot,
            thd = self.transformed_hot_deferred,
        )
    }

    /// The Table-1 header matching [`Self::table_row`].
    #[must_use]
    pub fn table_header() -> String {
        format!(
            "{:<12} {:>6} {:>6} {:>5} {:>9} {:>10} {:>9} {:>9} {:>11} {:>11}",
            "repo",
            "locks",
            "unlocks",
            "(def)",
            "dom-viol",
            "cand-pairs",
            "unfit i/x",
            "alias i/x",
            "xformed(def)",
            "w/prof(def)",
        )
    }
}

/// The result of analyzing one package.
#[derive(Debug, Default)]
pub struct PackageReport {
    /// Aggregated funnel counters.
    pub funnel: FunnelReport,
    /// Accepted transformation plans.
    pub plans: Vec<TransformPlan>,
}

impl PackageReport {
    /// Accumulates a unit funnel.
    pub fn merge(&mut self, other: &FunnelReport) {
        self.funnel.merge(other);
    }

    /// Plans surviving the profile filter.
    #[must_use]
    pub fn hot_plans(&self) -> Vec<TransformPlan> {
        self.plans.iter().filter(|p| p.hot).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = FunnelReport {
            lock_points: 2,
            transformed: 1,
            ..Default::default()
        };
        let b = FunnelReport {
            lock_points: 3,
            candidate_pairs: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.lock_points, 5);
        assert_eq!(a.candidate_pairs, 2);
        assert_eq!(a.transformed, 1);
    }

    #[test]
    fn table_row_renders() {
        let f = FunnelReport {
            lock_points: 54,
            unlock_points: 56,
            deferred_unlocks: 28,
            ..Default::default()
        };
        let row = f.table_row("tally");
        assert!(row.starts_with("tally"));
        assert!(row.contains("54"));
        assert!(row.contains("( 28)"));
    }
}
