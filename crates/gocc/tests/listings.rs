//! Analyzer and transformer behavior on the paper's listings (§5, App. A–C).

use gocc::{analyze_package, transform_file, unified_diff, AnalysisOptions, Package};
use gocc_profile::Profile;
use golite::printer::print_file;

fn report(src: &str) -> gocc::PackageReport {
    let mut pkg = Package::from_source(src).expect("parse");
    analyze_package(&mut pkg, &AnalysisOptions::default())
}

fn diff_of(src: &str) -> String {
    let mut pkg = Package::from_source(src).expect("parse");
    let rep = analyze_package(&mut pkg, &AnalysisOptions::default());
    let file = &pkg.files[0];
    let transformed = transform_file(file, &pkg.info, 0, &rep.plans);
    unified_diff("a.go", "b.go", &print_file(file), &print_file(&transformed))
}

const PRELUDE: &str = r#"
package p

import "sync"

type C struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}
"#;

#[test]
fn listing1_basic_pair_is_transformed() {
    let src = format!(
        "{PRELUDE}
func (c *C) Inc() {{
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.lock_points, 1);
    assert_eq!(rep.funnel.unlock_points, 1);
    assert_eq!(rep.funnel.candidate_pairs, 1);
    assert_eq!(rep.funnel.transformed, 1);
    assert_eq!(rep.funnel.dominance_violations, 0);
}

#[test]
fn listing7_defer_unlock_is_paired_and_kept_deferred() {
    let src = format!(
        "{PRELUDE}
func (c *C) Inc() {{
	defer c.mu.Unlock()
	c.mu.Lock()
	c.n++
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.transformed, 1, "funnel: {:?}", rep.funnel);
    assert_eq!(rep.funnel.transformed_deferred, 1);
    assert!(rep.plans[0].deferred);
}

#[test]
fn defer_with_multiple_returns_is_paired() {
    let src = format!(
        "{PRELUDE}
func (c *C) Get(k int) int {{
	c.mu.Lock()
	defer c.mu.Unlock()
	if k > 0 {{
		return k
	}}
	return c.n
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.transformed, 1, "funnel: {:?}", rep.funnel);
}

#[test]
fn io_inside_section_is_unfit() {
    let src = format!(
        "{PRELUDE}
func (c *C) Log() {{
	c.mu.Lock()
	fmt.Println(c.n)
	c.mu.Unlock()
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.candidate_pairs, 1);
    assert_eq!(rep.funnel.unfit_intra, 1);
    assert_eq!(rep.funnel.transformed, 0);
}

#[test]
fn io_in_callee_is_unfit_interproc() {
    let src = format!(
        "{PRELUDE}
func (c *C) Outer() {{
	c.mu.Lock()
	c.log()
	c.mu.Unlock()
}}

func (c *C) log() {{
	fmt.Println(c.n)
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.candidate_pairs, 1);
    assert_eq!(rep.funnel.unfit_interproc, 1);
    assert_eq!(rep.funnel.transformed, 0);
}

#[test]
fn listing3_nested_disjoint_locks_both_transform() {
    let src = format!(
        "{PRELUDE}
type D struct {{
	mu sync.Mutex
	m  int
}}

func pair(a *C, b *D) {{
	a.mu.Lock()
	b.mu.Lock()
	b.m++
	b.mu.Unlock()
	a.mu.Unlock()
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.candidate_pairs, 2, "funnel: {:?}", rep.funnel);
    assert_eq!(rep.funnel.transformed, 2);
    assert_eq!(rep.funnel.nested_alias_intra, 0);
}

#[test]
fn nested_aliasing_locks_inner_transforms_outer_rejected() {
    // Both a and b are *C receivers: their `mu` fields share one abstract
    // object, so the outer pair sees aliasing LU-points inside (Listing 3
    // with aliasing pointers).
    let src = format!(
        "{PRELUDE}
func pair(a *C, b *C) {{
	a.mu.Lock()
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	a.mu.Unlock()
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.candidate_pairs, 2, "funnel: {:?}", rep.funnel);
    assert_eq!(rep.funnel.transformed, 1, "inner pair only");
    assert_eq!(rep.funnel.nested_alias_intra, 1, "outer pair rejected");
}

#[test]
fn listing5_hand_over_hand_inner_pair_mispaired_by_design() {
    // The traversal's inner region pairs b.Lock() with a.Unlock(); GOCC
    // transforms it deliberately and relies on the runtime mismatch
    // recovery (§5.2.3). The outer pair is rejected by condition (3).
    let src = r#"
package p

import "sync"

type Node struct {
	mu   sync.Mutex
	next *Node
	val  int
}

func traverse(head *Node) {
	a := head
	a.mu.Lock()
	for a.next != nil {
		b := a.next
		b.mu.Lock()
		a.mu.Unlock()
		a = b
	}
	a.mu.Unlock()
}
"#;
    let rep = report(src);
    assert_eq!(rep.funnel.transformed, 1, "funnel: {:?}", rep.funnel);
    // The transformed pair is lock=b.Lock, unlock=a.Unlock (the loop-body
    // pair); the outer a.Lock/final a.Unlock is rejected for aliasing.
    assert_eq!(rep.funnel.nested_alias_intra, 1);
}

#[test]
fn lock_without_unlock_on_some_path_violates_dominance() {
    let src = format!(
        "{PRELUDE}
func (c *C) Maybe(x int) {{
	c.mu.Lock()
	if x > 0 {{
		c.mu.Unlock()
	}}
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.transformed, 0, "funnel: {:?}", rep.funnel);
    assert!(rep.funnel.dominance_violations >= 1);
}

#[test]
fn branch_balanced_unlocks_do_not_pair_under_dom_pdom() {
    // Appendix A, Listing 15: locks in both branches, unlocks in both
    // branches — correct code, but no single L dominates a U, so GOCC
    // conservatively skips it.
    let src = format!(
        "{PRELUDE}
func (c *C) Branchy(cond1 bool, cond2 bool) {{
	if cond1 {{
		c.mu.Lock()
	}} else {{
		c.mu.Lock()
	}}
	if cond2 {{
		c.mu.Unlock()
	}} else {{
		c.mu.Unlock()
	}}
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.transformed, 0, "funnel: {:?}", rep.funnel);
    assert!(rep.funnel.dominance_violations > 0);
}

#[test]
fn rwmutex_read_pair_is_read_elision() {
    let src = format!(
        "{PRELUDE}
func (c *C) Read() int {{
	c.rw.RLock()
	v := c.n
	c.rw.RUnlock()
	return v
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.transformed, 1, "funnel: {:?}", rep.funnel);
    assert!(rep.plans[0].read_elision);
    assert!(rep.plans[0].rw);
}

#[test]
fn anonymous_goroutine_pair_transforms_inside_closure() {
    let src = format!(
        "{PRELUDE}
func (c *C) Par() {{
	go func() {{
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}}()
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.transformed, 1, "funnel: {:?}", rep.funnel);
    assert!(
        rep.plans[0].unit.contains('$'),
        "pair lives in the closure unit"
    );
    // The OptiLock declaration must land inside the closure (Listing 14).
    let d = diff_of(&src);
    assert!(d.contains("optiLock1 := optilib.OptiLock{}"), "diff:\n{d}");
    assert!(d.contains("optiLock1.FastLock(&c.mu)"), "diff:\n{d}");
}

#[test]
fn multiple_defer_unlocks_discard_function() {
    let src = format!(
        "{PRELUDE}
func (c *C) Bad() {{
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rw.Lock()
	defer c.rw.Unlock()
	c.n++
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.discarded_multi_defer, 1);
    assert_eq!(rep.funnel.transformed, 0);
}

#[test]
fn channel_ops_inside_section_are_unfit() {
    let src = format!(
        "{PRELUDE}
func (c *C) Send(ch chan int) {{
	c.mu.Lock()
	ch <- c.n
	c.mu.Unlock()
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.unfit_intra, 1);
}

#[test]
fn profile_filter_marks_cold_pairs() {
    let src = format!(
        "{PRELUDE}
func (c *C) Hot() {{
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}}

func (c *C) Cold() {{
	c.mu.Lock()
	c.n--
	c.mu.Unlock()
}}
"
    );
    let profile =
        Profile::parse("total 1000000\nfunc C.Hot 100 500000\nfunc C.Cold 1 100\n").unwrap();
    let mut pkg = Package::from_source(&src).unwrap();
    let rep = analyze_package(
        &mut pkg,
        &AnalysisOptions {
            profile: Some(profile),
            hot_threshold: None,
        },
    );
    assert_eq!(rep.funnel.transformed, 2);
    assert_eq!(
        rep.funnel.transformed_hot, 1,
        "only the hot pair survives the filter"
    );
    let hot = rep.hot_plans();
    assert_eq!(hot.len(), 1);
    assert_eq!(hot[0].unit, "C.Hot");
}

#[test]
fn transform_value_mutex_takes_address() {
    let src = format!(
        "{PRELUDE}
func (c *C) Inc() {{
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}}
"
    );
    let d = diff_of(&src);
    assert!(d.contains("+\toptiLock1.FastLock(&c.mu)"), "diff:\n{d}");
    assert!(d.contains("+\toptiLock1.FastUnlock(&c.mu)"), "diff:\n{d}");
    assert!(d.contains("-\tc.mu.Lock()"), "diff:\n{d}");
    assert!(d.contains("optilib"), "import added:\n{d}");
}

#[test]
fn transform_pointer_mutex_passes_as_is() {
    let src = r#"
package p

import "sync"

func work(m *sync.Mutex, n *int) {
	m.Lock()
	*n = *n + 1
	m.Unlock()
}
"#;
    let d = diff_of(src);
    assert!(d.contains("optiLock1.FastLock(m)"), "diff:\n{d}");
    assert!(
        !d.contains("FastLock(&m)"),
        "pointer receiver must pass as-is:\n{d}"
    );
}

#[test]
fn transform_anonymous_mutex_suffixes_access_path() {
    let src = r#"
package p

import "sync"

type Astruct struct {
	sync.Mutex
	val int
}

func bump(a *Astruct) {
	a.Lock()
	a.val++
	a.Unlock()
}
"#;
    let d = diff_of(src);
    assert!(
        d.contains("optiLock1.FastLock(&a.Mutex)"),
        "Listing 12 shape, got:\n{d}"
    );
}

#[test]
fn transform_defer_keeps_defer_keyword() {
    let src = format!(
        "{PRELUDE}
func (c *C) Get() int {{
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}}
"
    );
    let d = diff_of(&src);
    assert!(
        d.contains("+\tdefer optiLock1.FastUnlock(&c.mu)"),
        "diff:\n{d}"
    );
}

#[test]
fn rwmutex_write_pair_uses_fastlock() {
    let src = format!(
        "{PRELUDE}
func (c *C) Write() {{
	c.rw.Lock()
	c.n++
	c.rw.Unlock()
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.transformed, 1, "funnel: {:?}", rep.funnel);
    assert!(rep.plans[0].rw);
    assert!(!rep.plans[0].read_elision);
}

#[test]
fn loop_body_pair_transforms() {
    let src = format!(
        "{PRELUDE}
func (c *C) Hammer(iters int) {{
	for i := 0; i < iters; i++ {{
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}}
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.transformed, 1, "funnel: {:?}", rep.funnel);
}

#[test]
fn interprocedural_nested_alias_rejected() {
    let src = format!(
        "{PRELUDE}
func (c *C) Outer() {{
	c.mu.Lock()
	c.inner()
	c.mu.Unlock()
}}

func (c *C) inner() {{
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}}
"
    );
    let rep = report(&src);
    // inner's own pair transforms; Outer's pair must be rejected because
    // the callee locks the same mutex (would self-abort under flat
    // nesting... and deadlock under locks).
    assert_eq!(
        rep.funnel.nested_alias_interproc, 1,
        "funnel: {:?}",
        rep.funnel
    );
    assert_eq!(rep.funnel.transformed, 1);
}

#[test]
fn straight_line_sequence_splices_into_two_pairs() {
    // Appendix B: two back-to-back pairs on different mutexes in
    // straight-line code must both match.
    let src = format!(
        "{PRELUDE}
func (c *C) Two() {{
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.rw.Lock()
	c.n--
	c.rw.Unlock()
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.candidate_pairs, 2, "funnel: {:?}", rep.funnel);
    assert_eq!(rep.funnel.transformed, 2);
}

#[test]
fn sequential_pairs_same_mutex_both_match() {
    // Appendix B figure: consecutive LU pairs on the SAME mutex in
    // straight-line code splice into separate innermost pairs.
    let src = format!(
        "{PRELUDE}
func (c *C) TwoSame() {{
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.mu.Lock()
	c.n--
	c.mu.Unlock()
}}
"
    );
    let rep = report(&src);
    assert_eq!(rep.funnel.candidate_pairs, 2, "funnel: {:?}", rep.funnel);
    assert_eq!(rep.funnel.transformed, 2);
}
