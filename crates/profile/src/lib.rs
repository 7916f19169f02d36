//! Execution profiles for §5.2.6's hot-section filtering.
//!
//! Go programs are profiled with pprof: callstack samples aggregated into a
//! weighted call graph whose nodes carry inclusive (cumulative) and
//! exclusive (flat) times. GOCC uses only a sliver of that structure —
//! per-function inclusive time as a fraction of total execution — to skip
//! transforming critical sections "where the aggregated execution time is
//! less than 1% of the total execution time".
//!
//! This crate models that sliver: a [`Profile`] maps function names to
//! flat/cumulative nanoseconds plus caller→callee edge weights, parses a
//! small line-oriented text format (see [`Profile::parse`]), and answers
//! the analyzer's only question, [`Profile::is_hot`].

use std::collections::HashMap;
use std::fmt;

/// Default hotness threshold: 1% of total execution time (§5.2.6).
pub const DEFAULT_HOT_THRESHOLD: f64 = 0.01;

/// Per-function sample weights.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuncWeight {
    /// Exclusive (self) time, nanoseconds.
    pub flat_ns: u64,
    /// Inclusive (self + callees) time, nanoseconds.
    pub cum_ns: u64,
}

/// A parse error for the profile text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ProfileParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "profile parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ProfileParseError {}

/// A weighted call-graph profile.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    total_ns: u64,
    funcs: HashMap<String, FuncWeight>,
    edges: HashMap<(String, String), u64>,
}

impl Profile {
    /// Parses the text format:
    ///
    /// ```text
    /// # comments and blank lines are skipped
    /// total 1000000
    /// func Counter.Inc 1200 45000
    /// edge main Counter.Inc 45000
    /// ```
    pub fn parse(text: &str) -> Result<Profile, ProfileParseError> {
        let mut p = Profile::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: &str| ProfileParseError {
                line: i + 1,
                message: message.into(),
            };
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("total") => {
                    let v = parts.next().ok_or_else(|| err("missing total value"))?;
                    p.total_ns = v
                        .parse()
                        .map_err(|_| err("total must be an integer nanosecond count"))?;
                }
                Some("func") => {
                    let name = parts.next().ok_or_else(|| err("missing function name"))?;
                    let flat: u64 = parts
                        .next()
                        .ok_or_else(|| err("missing flat time"))?
                        .parse()
                        .map_err(|_| err("flat time must be an integer"))?;
                    let cum: u64 = parts
                        .next()
                        .ok_or_else(|| err("missing cumulative time"))?
                        .parse()
                        .map_err(|_| err("cumulative time must be an integer"))?;
                    p.funcs.insert(
                        name.to_string(),
                        FuncWeight {
                            flat_ns: flat,
                            cum_ns: cum,
                        },
                    );
                }
                Some("edge") => {
                    let caller = parts.next().ok_or_else(|| err("missing caller"))?;
                    let callee = parts.next().ok_or_else(|| err("missing callee"))?;
                    let w: u64 = parts
                        .next()
                        .ok_or_else(|| err("missing edge weight"))?
                        .parse()
                        .map_err(|_| err("edge weight must be an integer"))?;
                    *p.edges
                        .entry((caller.to_string(), callee.to_string()))
                        .or_insert(0) += w;
                }
                Some(other) => return Err(err(&format!("unknown record kind `{other}`"))),
                None => {}
            }
        }
        Ok(p)
    }

    /// Total profiled time.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// The weight record for a function, if sampled.
    #[must_use]
    pub fn func(&self, name: &str) -> Option<FuncWeight> {
        self.funcs.get(name).copied()
    }

    /// Inclusive-time fraction of a function in [0, 1]. Unknown functions
    /// and closure units (`name$k`) fall back to their enclosing function.
    #[must_use]
    pub fn hot_fraction(&self, name: &str) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        let direct = self
            .funcs
            .get(name)
            .or_else(|| self.funcs.get(name.split('$').next().unwrap_or(name)));
        direct
            .map(|w| w.cum_ns as f64 / self.total_ns as f64)
            .unwrap_or(0.0)
    }

    /// §5.2.6's filter: at least `threshold` of total time spent in (or
    /// below) the function. With no profile data loaded, every function is
    /// treated as hot — profiles are an optional input to GOCC.
    #[must_use]
    pub fn is_hot(&self, name: &str, threshold: f64) -> bool {
        if self.is_empty() {
            return true;
        }
        self.hot_fraction(name) >= threshold
    }

    /// Whether the profile carries no data.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty() && self.total_ns == 0
    }

    /// Edge weight between two functions.
    #[must_use]
    pub fn edge(&self, caller: &str, callee: &str) -> u64 {
        self.edges
            .get(&(caller.to_string(), callee.to_string()))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# synthetic profile
total 1000000

func hot.Path 5000 250000
func warm.Path 100 10000
func cold.Path 10 900
edge main hot.Path 250000
edge hot.Path warm.Path 10000
";

    #[test]
    fn parse_and_query() {
        let p = Profile::parse(TEXT).unwrap();
        assert_eq!(p.total_ns(), 1_000_000);
        assert_eq!(p.func("hot.Path").unwrap().cum_ns, 250_000);
        assert_eq!(p.edge("main", "hot.Path"), 250_000);
        assert!((p.hot_fraction("hot.Path") - 0.25).abs() < 1e-9);
    }

    #[test]
    fn hotness_threshold() {
        let p = Profile::parse(TEXT).unwrap();
        assert!(p.is_hot("hot.Path", DEFAULT_HOT_THRESHOLD));
        assert!(
            p.is_hot("warm.Path", DEFAULT_HOT_THRESHOLD),
            "exactly 1% is hot"
        );
        assert!(!p.is_hot("cold.Path", DEFAULT_HOT_THRESHOLD));
        assert!(!p.is_hot("unknown.Func", DEFAULT_HOT_THRESHOLD));
    }

    #[test]
    fn empty_profile_everything_hot() {
        let p = Profile::default();
        assert!(p.is_hot("anything", DEFAULT_HOT_THRESHOLD));
    }

    #[test]
    fn closure_units_inherit_enclosing_heat() {
        let p = Profile::parse(TEXT).unwrap();
        assert!(p.is_hot("hot.Path$1", DEFAULT_HOT_THRESHOLD));
        assert!(!p.is_hot("cold.Path$2", DEFAULT_HOT_THRESHOLD));
    }

    #[test]
    fn parse_errors() {
        assert!(Profile::parse("bogus line").is_err());
        assert!(Profile::parse("total abc").is_err());
        let err = Profile::parse("func onlyname").unwrap_err();
        assert_eq!(err.line, 1);
    }
}
