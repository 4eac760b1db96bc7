//! Shared plumbing for the cfc benchmark harness.
//!
//! Each bench target in `benches/` regenerates one table or quantitative
//! claim of Alur & Taubenfeld (PODC 1994): it prints the reproduced
//! artifact (so `cargo bench` output contains the paper's tables,
//! re-derived from measured runs) and then times the underlying
//! measurement pipeline with criterion. This library hosts helpers reused
//! across targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cfc_bounds::table::TextTable;
use cfc_core::metrics::TripComplexity;
use cfc_core::{Layout, ProcessId, Trace};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Writes a reproduced table as CSV under `cfc-artifacts/` in the cargo
/// target directory the running executable was built into (usually
/// `target/cfc-artifacts/`), returning the path. Benches call this so
/// that every regenerated paper artifact also exists in machine-readable
/// form. The directory is resolved at run time, so a copied or moved
/// checkout writes into its own target directory.
///
/// # Errors
///
/// Propagates filesystem errors, and fails with
/// [`std::io::ErrorKind::NotFound`] when the executable does not live in
/// a cargo target directory.
pub fn write_artifact(name: &str, table: &TextTable) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = artifact_dir(&exe, |d| d.join("CACHEDIR.TAG").is_file()).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no cargo target directory above {}", exe.display()),
        )
    })?;
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// `cfc-artifacts` under the nearest proper ancestor of `exe` that
/// `is_target_dir` accepts — cargo marks its target directories with a
/// `CACHEDIR.TAG` file — or `None` when no ancestor qualifies.
fn artifact_dir(exe: &Path, is_target_dir: impl Fn(&Path) -> bool) -> Option<PathBuf> {
    exe.ancestors()
        .skip(1)
        .find(|d| is_target_dir(d))
        .map(|d| d.join("cfc-artifacts"))
}

/// The distinct *memory words* a process touched: packed registers count
/// once per word, unpacked registers once each. Under coherent caching
/// this is the remote-access count of the run (Section 1.2), and it is
/// the quantity the \[MS93\] packing experiment reduces.
pub fn distinct_words(trace: &Trace, layout: &Layout, pid: ProcessId) -> usize {
    let mut words = BTreeSet::new();
    for (op, _) in trace.accesses_by(pid) {
        for r in op.registers(layout) {
            match layout.spec(r).word() {
                Some(w) => words.insert((1u8, w.index() as u64)),
                None => words.insert((0u8, r.index() as u64)),
            };
        }
    }
    words.len()
}

/// Formats a [`TripComplexity`] as `steps/registers` for table cells.
pub fn cell(trip: &TripComplexity) -> String {
    format!("{}/{}", trip.total.steps, trip.total.registers)
}

/// The `n` values used by the table sweeps.
pub const TABLE_NS: [usize; 4] = [16, 256, 4096, 1 << 16];

/// The `l` values used by the table sweeps.
pub const TABLE_LS: [u32; 4] = [1, 2, 4, 8];

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{run_solo, Memory, Op, OpResult, Process, Step, Value};

    #[derive(Clone)]
    struct Toucher {
        ops: Vec<Op>,
        pc: usize,
    }

    impl Process for Toucher {
        fn current(&self) -> Step {
            match self.ops.get(self.pc) {
                Some(op) => Step::Op(op.clone()),
                None => Step::Halt,
            }
        }
        fn advance(&mut self, _: OpResult) {
            self.pc += 1;
        }
    }

    /// Minimal CSV reader matching `TextTable::to_csv`'s escaping rules
    /// (RFC 4180 quoting: fields with `,`/`"`/newline are quoted, quotes
    /// doubled). Test-only: production code never parses the artifacts.
    fn parse_csv(text: &str) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        let mut row = Vec::new();
        let mut cell = String::new();
        let mut chars = text.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            if quoted {
                match c {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        cell.push('"');
                    }
                    '"' => quoted = false,
                    other => cell.push(other),
                }
            } else {
                match c {
                    '"' => quoted = true,
                    ',' => row.push(std::mem::take(&mut cell)),
                    '\n' => {
                        row.push(std::mem::take(&mut cell));
                        rows.push(std::mem::take(&mut row));
                    }
                    other => cell.push(other),
                }
            }
        }
        if !cell.is_empty() || !row.is_empty() {
            row.push(cell);
            rows.push(row);
        }
        rows
    }

    #[test]
    fn write_artifact_round_trips_a_table_to_csv() {
        let mut table = TextTable::new(["n", "cf steps", "note"]).with_title("round-trip artifact");
        table.row(["2", "7", "plain"]);
        table.row(["4096", "7", "comma, inside"]);
        table.row(["65536", "7", "say \"hi\""]);

        let path = write_artifact("test_round_trip", &table).unwrap();
        assert!(path.ends_with("test_round_trip.csv"));
        assert!(
            path.parent().unwrap().ends_with("cfc-artifacts"),
            "artifact must land under target/cfc-artifacts/, got {}",
            path.display()
        );

        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, table.to_csv());

        let cells = parse_csv(&written);
        assert_eq!(cells[0], vec!["n", "cf steps", "note"]);
        assert_eq!(cells[1], vec!["2", "7", "plain"]);
        assert_eq!(cells[2], vec!["4096", "7", "comma, inside"]);
        assert_eq!(cells[3], vec!["65536", "7", "say \"hi\""]);
        assert_eq!(cells.len(), 4);
    }

    #[test]
    fn write_artifact_overwrites_on_rewrite() {
        let mut first = TextTable::new(["a"]);
        first.row(["1"]);
        let mut second = TextTable::new(["a"]);
        second.row(["2"]);
        write_artifact("test_overwrite", &first).unwrap();
        let path = write_artifact("test_overwrite", &second).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), second.to_csv());
    }

    #[test]
    fn artifact_dir_is_the_nearest_target_dir_above_the_executable() {
        let exe = Path::new("/copy/of/tree/target/release/deps/table1_mutex-0123");
        let marked = |d: &Path| d.ends_with("target") || d == Path::new("/copy");
        assert_eq!(
            artifact_dir(exe, marked),
            Some(PathBuf::from("/copy/of/tree/target/cfc-artifacts"))
        );
        // Custom target directories resolve the same way.
        let exe = Path::new("/work/cfc-target/debug/deps/cfc_bench-4567");
        assert_eq!(
            artifact_dir(exe, |d| d == Path::new("/work/cfc-target")),
            Some(PathBuf::from("/work/cfc-target/cfc-artifacts"))
        );
        // The executable itself is never the target directory.
        assert_eq!(
            artifact_dir(Path::new("/target"), |d| d.ends_with("target")),
            None
        );
        assert_eq!(artifact_dir(exe, |_| false), None);
    }

    #[test]
    fn distinct_words_collapses_packed_registers() {
        let mut layout = Layout::new();
        let x = layout.register("x", 4, 0);
        let y = layout.register("y", 4, 0);
        let z = layout.bit("z", false);
        let w = layout.pack(&[x, y]).unwrap();
        let memory = Memory::new(layout.clone(), 8).unwrap();
        let proc_ = Toucher {
            ops: vec![
                Op::Write(x, Value::ONE),
                Op::Read(y),
                Op::Read(z),
                Op::ReadWord(w),
            ],
            pc: 0,
        };
        let (trace, _, _) = run_solo(memory, proc_).unwrap();
        // x and y share a word; z stands alone: 2 distinct words.
        assert_eq!(distinct_words(&trace, &layout, ProcessId::new(0)), 2);
    }
}
