//! Cross-crate integration: the full GOCC pipeline, source to patch.

use gocc_repro::gocc::{analyze_package, transform_file, unified_diff, AnalysisOptions, Package};
use gocc_repro::golite::parser::parse_file;
use gocc_repro::golite::printer::print_file;
use gocc_repro::profile::Profile;

const SAMPLE: &str = r#"
package sample

import "sync"

type Store struct {
	mu    sync.RWMutex
	data  map[string]int
	count int
}

func (s *Store) Get(k string) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[k]
	return v, ok
}

func (s *Store) Put(k string, v int) {
	s.mu.Lock()
	s.data[k] = v
	s.count++
	s.mu.Unlock()
}

func (s *Store) Dump() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, v := range s.data {
		fmt.Println(k, v)
	}
}

func (s *Store) Size() int {
	s.mu.RLock()
	n := s.count
	s.mu.RUnlock()
	return n
}
"#;

#[test]
fn analyze_transform_patch_roundtrip() {
    let mut pkg = Package::from_source(SAMPLE).unwrap();
    let report = analyze_package(&mut pkg, &AnalysisOptions::default());

    // Get, Put, Size transform; Dump is IO-unfit.
    assert_eq!(report.funnel.transformed, 3, "funnel: {:?}", report.funnel);
    assert_eq!(report.funnel.unfit_intra, 1);

    let transformed = transform_file(&pkg.files[0], &pkg.info, 0, &report.plans);
    let patched = print_file(&transformed);

    // The patch parses as valid source again (idempotent frontend).
    let reparsed = parse_file(&patched).expect("transformed output must reparse");
    assert_eq!(reparsed.funcs().count(), 4);

    // Structure checks on the output program.
    assert!(patched.contains("optiLock1 := optilib.OptiLock{}"));
    assert!(
        patched.contains("defer optiLock1.FastRUnlock(&s.mu)"),
        "{patched}"
    );
    assert!(patched.contains("optiLock1.FastRLock(&s.mu)"));
    assert!(patched.contains("\"optilib\""), "import must be added");
    // Dump unchanged.
    assert!(
        patched.contains("s.mu.RLock()"),
        "the unfit section keeps its lock"
    );

    let diff = unified_diff(
        "sample.go",
        "sample.go.gocc",
        &print_file(&pkg.files[0]),
        &patched,
    );
    assert!(diff.contains("+++ sample.go.gocc"));
    assert!(diff.matches("FastLock").count() >= 1);
}

#[test]
fn profile_filter_reduces_patch_size() {
    let hot_only = Profile::parse(
        "total 1000000\nfunc Store.Get 100 500000\nfunc Store.Put 10 500\nfunc Store.Size 10 400\n",
    )
    .unwrap();
    let mut pkg = Package::from_source(SAMPLE).unwrap();
    let report = analyze_package(
        &mut pkg,
        &AnalysisOptions {
            profile: Some(hot_only),
            hot_threshold: None,
        },
    );
    assert_eq!(report.funnel.transformed, 3);
    assert_eq!(report.funnel.transformed_hot, 1, "only Get is hot");
    let transformed = transform_file(&pkg.files[0], &pkg.info, 0, &report.hot_plans());
    let patched = print_file(&transformed);
    assert!(patched.contains("FastRLock"), "hot Get is rewritten");
    assert!(patched.contains("s.mu.Lock()"), "cold Put keeps its lock");
}

#[test]
fn multi_file_package_analysis() {
    let types_go = "package p\n\nimport \"sync\"\n\ntype T struct {\n\tmu sync.Mutex\n\tv int\n}\n";
    let ops_go = "package p\n\nfunc (t *T) Inc() {\n\tt.mu.Lock()\n\tt.v++\n\tt.mu.Unlock()\n}\n";
    let mut pkg = Package::load(&[("types.go", types_go), ("ops.go", ops_go)]).unwrap();
    let report = analyze_package(&mut pkg, &AnalysisOptions::default());
    assert_eq!(report.funnel.transformed, 1);
    assert_eq!(report.plans[0].file_idx, 1, "the pair lives in ops.go");
    // Transforming types.go is a no-op; ops.go gets the rewrite.
    let t0 = transform_file(&pkg.files[0], &pkg.info, 0, &report.plans);
    assert_eq!(print_file(&t0), print_file(&pkg.files[0]));
    let t1 = transform_file(&pkg.files[1], &pkg.info, 1, &report.plans);
    assert!(print_file(&t1).contains("FastLock"));
}

#[test]
fn corpus_packages_analyze_cleanly() {
    for name in ["tally", "zap", "gocache", "fastcache", "set"] {
        let path = format!("corpus/{name}/{name}.go");
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut pkg = Package::from_source(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = analyze_package(&mut pkg, &AnalysisOptions::default());
        assert!(report.funnel.lock_points > 0, "{name} must contain locks");
        assert!(
            report.funnel.transformed > 0,
            "{name} must have transformable pairs"
        );
        // The transformed corpus file must still parse.
        let out = transform_file(&pkg.files[0], &pkg.info, 0, &report.plans);
        let printed = print_file(&out);
        parse_file(&printed).unwrap_or_else(|e| panic!("{name} output reparse: {e}\n{printed}"));
    }
}
