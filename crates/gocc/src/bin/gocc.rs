//! The `gocc` command-line driver.
//!
//! ```text
//! gocc analyze   <file.go>... [--profile prof.txt]           # print the Table-1 funnel
//! gocc transform <file.go>... [--profile prof.txt] [--write] # print the source patch
//! ```
//!
//! `--write` additionally writes each transformed file next to its input
//! as `<file>.gocc.go`, ready for review or a `diff -u` of one's own.
//!
//! Sources passed together are analyzed as one package. The output of
//! `transform` is a unified diff against the gofmt-normalized original,
//! exactly the developer-reviewable patch the paper describes as GOCC's
//! end product.

use std::process::ExitCode;

use gocc::{analyze_package, transform_file, unified_diff, AnalysisOptions, Package};
use gocc_profile::Profile;
use golite::printer::print_file;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gocc: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((mode, rest)) = args.split_first() else {
        return Err(usage());
    };
    let mut files: Vec<String> = Vec::new();
    let mut profile_path: Option<String> = None;
    let mut only_hot = false;
    let mut write_files = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--write" => write_files = true,
            "--profile" => {
                profile_path = Some(it.next().ok_or("--profile needs a file argument")?.clone());
                only_hot = true;
            }
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()))
            }
            path => files.push(path.to_string()),
        }
    }
    if files.is_empty() {
        return Err(format!("no input files\n{}", usage()));
    }

    let mut sources = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        sources.push((path.clone(), text));
    }
    let source_refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let mut pkg = Package::load(&source_refs).map_err(|e| e.to_string())?;

    let profile = match &profile_path {
        Some(p) => {
            let text =
                std::fs::read_to_string(p).map_err(|e| format!("reading profile {p}: {e}"))?;
            Some(Profile::parse(&text).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let opts = AnalysisOptions {
        profile,
        hot_threshold: None,
    };
    let report = analyze_package(&mut pkg, &opts);

    match mode.as_str() {
        "analyze" => {
            println!("{}", gocc::FunnelReport::table_header());
            println!("{}", report.funnel.table_row(&pkg.files[0].package));
            println!();
            println!("accepted pairs:");
            for plan in &report.plans {
                println!(
                    "  {} lock={:?} unlock={:?}{}{}{}",
                    plan.unit,
                    plan.lock_node,
                    plan.unlock_node,
                    if plan.deferred { " [defer]" } else { "" },
                    if plan.read_elision { " [rlock]" } else { "" },
                    if plan.hot { "" } else { " [cold]" },
                );
            }
            Ok(())
        }
        "transform" => {
            let plans = if only_hot {
                report.hot_plans()
            } else {
                report.plans.clone()
            };
            let mut emitted = false;
            for (idx, file) in pkg.files.iter().enumerate() {
                let original = print_file(file);
                let transformed = transform_file(file, &pkg.info, idx, &plans);
                let new_text = print_file(&transformed);
                let diff = unified_diff(
                    &pkg.file_names[idx],
                    &format!("{}.gocc", pkg.file_names[idx]),
                    &original,
                    &new_text,
                );
                if !diff.is_empty() {
                    print!("{diff}");
                    emitted = true;
                    if write_files {
                        let out_path =
                            format!("{}.gocc.go", pkg.file_names[idx].trim_end_matches(".go"));
                        std::fs::write(&out_path, &new_text)
                            .map_err(|e| format!("writing {out_path}: {e}"))?;
                        eprintln!("gocc: wrote {out_path}");
                    }
                }
            }
            if !emitted {
                eprintln!("gocc: no transformable lock/unlock pairs found");
            }
            Ok(())
        }
        other => Err(format!("unknown mode `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: gocc <analyze|transform> <file.go>... [--profile prof.txt] [--write]".to_string()
}
