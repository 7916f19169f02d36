//! Package loading: sources → AST + types + CFGs + points-to + call graph.

use gocc_flowgraph::{build_cfg, BuildCtx, FuncUnit};
use gocc_pointsto::{CallGraph, PointsTo};
use golite::ast::File;
use golite::parser::{parse_file, ParseError};
use golite::types::TypeInfo;

/// One analyzed Go package: every artifact the analyzer consumes.
pub struct Package {
    /// Parsed source files, in load order.
    pub files: Vec<File>,
    /// File names parallel to [`Package::files`].
    pub file_names: Vec<String>,
    /// Package-level type information.
    pub info: TypeInfo,
    /// Analyzer units (functions and closures), per file: `units[i]` holds
    /// the units of `files[i]`.
    pub units: Vec<Vec<FuncUnit>>,
    /// May-alias points-to model.
    pub points_to: PointsTo,
    /// Static call graph over all units.
    pub call_graph: CallGraph,
}

impl Package {
    /// Parses and analyzes the given `(name, source)` pairs as one package.
    pub fn load(sources: &[(&str, &str)]) -> Result<Package, ParseError> {
        let mut files = Vec::new();
        let mut file_names = Vec::new();
        for (name, src) in sources {
            files.push(parse_file(src)?);
            file_names.push((*name).to_string());
        }
        let refs: Vec<&File> = files.iter().collect();
        let info = TypeInfo::new(&refs);
        let mut units: Vec<Vec<FuncUnit>> = Vec::new();
        for file in &files {
            let mut file_units = Vec::new();
            for fd in file.funcs() {
                let env = info.local_env(fd);
                let ctx = BuildCtx {
                    info: &info,
                    env: &env,
                };
                file_units.extend(build_cfg(fd, &ctx));
            }
            units.push(file_units);
        }
        let points_to = PointsTo::analyze(&refs, &info);
        let all_units: Vec<&FuncUnit> = units.iter().flatten().collect();
        // CallGraph::build takes a slice of owned units; rebuild a flat
        // list by reference walking.
        let call_graph = build_call_graph(&all_units);
        Ok(Package {
            files,
            file_names,
            info,
            units,
            points_to,
            call_graph,
        })
    }

    /// Convenience: load a single anonymous source file.
    pub fn from_source(src: &str) -> Result<Package, ParseError> {
        Package::load(&[("input.go", src)])
    }

    /// Iterates all units across files.
    pub fn all_units(&self) -> impl Iterator<Item = &FuncUnit> {
        self.units.iter().flatten()
    }
}

fn build_call_graph(units: &[&FuncUnit]) -> CallGraph {
    CallGraph::build(units)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_multi_file_package() {
        let a = "package p\n\nimport \"sync\"\n\ntype C struct {\n\tmu sync.Mutex\n\tn int\n}\n";
        let b = "package p\n\nfunc (c *C) Inc() {\n\tc.mu.Lock()\n\tc.n++\n\tc.mu.Unlock()\n}\n";
        let pkg = Package::load(&[("types.go", a), ("inc.go", b)]).unwrap();
        assert_eq!(pkg.files.len(), 2);
        assert_eq!(pkg.all_units().count(), 1);
        assert!(pkg.all_units().any(|u| u.name == "C.Inc"));
    }

    #[test]
    fn parse_error_propagates() {
        assert!(Package::from_source("package p\nfunc broken( {").is_err());
    }
}
