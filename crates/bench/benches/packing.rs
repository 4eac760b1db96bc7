//! E7 — the [MS93] multi-grain packing experiment (Section 1.3): packing
//! several small registers into one atomically accessible word cuts the
//! number of distinct memory words (≈ remote accesses / cache lines) on
//! Lamport's contention-free fast path.
//!
//! Two reproductions:
//!
//! * **Simulated**: a packed-layout fast path where `x` and `y` share a
//!   word. The paper's register-complexity cost model (Section 1.2)
//!   counts the first access to each *word* as remote: packing drops the
//!   fast path from 3 words to 2 — the ~25% class of improvement Michael
//!   & Scott reported.
//! * **Native**: the same fast-path with `x`/`y` on one cache line versus
//!   padded onto separate lines, timed uncontended.

use cfc_bench::distinct_words;
use cfc_bounds::table::TextTable;
use cfc_core::{
    bits_for, run_solo, Layout, Memory, Op, OpResult, Process, ProcessId, RegisterId, Step, Value,
    WordId,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// The Lamport fast path (solo: no contention branches needed) over an
/// optionally packed layout: `b := 1; x := i; read y; y := i; read x;`
/// then exit `y := 0; b := 0`. With packing, the reads/writes of `x` and
/// `y` go through their shared word.
#[derive(Clone, Debug)]
struct FastPath {
    b: RegisterId,
    x: RegisterId,
    y: RegisterId,
    word: Option<WordId>,
    id: Value,
    pc: u8,
}

impl Process for FastPath {
    fn current(&self) -> Step {
        let field_write = |r: RegisterId, v: Value| match self.word {
            Some(w) => Op::WriteWord(w, vec![(r, v)]),
            None => Op::Write(r, v),
        };
        let field_read = |r: RegisterId| match self.word {
            Some(w) => Op::ReadWord(w),
            None => Op::Read(r),
        };
        match self.pc {
            0 => Step::Op(Op::Write(self.b, Value::ONE)),
            1 => Step::Op(field_write(self.x, self.id)),
            2 => Step::Op(field_read(self.y)),
            3 => Step::Op(field_write(self.y, self.id)),
            4 => Step::Op(field_read(self.x)),
            5 => Step::Op(field_write(self.y, Value::ZERO)),
            6 => Step::Op(Op::Write(self.b, Value::ZERO)),
            _ => Step::Halt,
        }
    }

    fn advance(&mut self, _: OpResult) {
        self.pc += 1;
    }
}

fn build(n: usize, packed: bool) -> (Memory, Layout, FastPath) {
    let width = bits_for(n as u64);
    let mut layout = Layout::new();
    let b = layout.bit("b", false);
    let x = layout.register("x", width, 0);
    let y = layout.register("y", width, 0);
    let word = packed.then(|| layout.pack(&[x, y]).unwrap());
    let memory = Memory::new(layout.clone(), if packed { 2 * width } else { width }).unwrap();
    (
        memory,
        layout,
        FastPath {
            b,
            x,
            y,
            word,
            id: Value::new(1),
            pc: 0,
        },
    )
}

fn print_packing_table() {
    println!("\n=== [MS93] packing: fast-path remote accesses (distinct words) ===\n");
    let mut table = TextTable::new([
        "n",
        "layout",
        "atomicity",
        "steps",
        "distinct words (remote accesses)",
    ]);
    for n in [256usize, 1 << 16] {
        for packed in [false, true] {
            let (memory, layout, proc_) = build(n, packed);
            let (trace, _, _) = run_solo(memory, proc_).unwrap();
            let pid = ProcessId::new(0);
            let c = cfc_core::metrics::process_complexity(&trace, &layout, pid);
            let words = distinct_words(&trace, &layout, pid);
            table.row([
                n.to_string(),
                if packed {
                    "x,y packed in one word"
                } else {
                    "separate registers"
                }
                .to_string(),
                format!(
                    "{} bits",
                    if packed {
                        2 * bits_for(n as u64)
                    } else {
                        bits_for(n as u64)
                    }
                ),
                c.steps.to_string(),
                words.to_string(),
            ]);
        }
    }
    println!("{table}");
    println!(
        "Packing x and y shrinks the remote-access count of the fast path\n\
         from 3 to 2 (-33%) at the price of doubling the atomic grain —\n\
         the multi-grain trade [MS93] exploited for a ~25% speedup.\n"
    );
}

/// Native analogue: x and y adjacent on one cache line vs padded apart.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Padded(AtomicUsize);

#[derive(Debug, Default)]
struct PackedPair {
    x: AtomicUsize,
    y: AtomicUsize,
}

#[derive(Debug, Default)]
struct PaddedPair {
    x: Padded,
    y: Padded,
}

fn fast_path_packed(p: &PackedPair) {
    p.x.store(1, SeqCst);
    let _ = p.y.load(SeqCst);
    p.y.store(1, SeqCst);
    let _ = p.x.load(SeqCst);
    p.y.store(0, SeqCst);
}

fn fast_path_padded(p: &PaddedPair) {
    p.x.0.store(1, SeqCst);
    let _ = p.y.0.load(SeqCst);
    p.y.0.store(1, SeqCst);
    let _ = p.x.0.load(SeqCst);
    p.y.0.store(0, SeqCst);
}

fn bench_packing(c: &mut Criterion) {
    print_packing_table();

    let mut group = c.benchmark_group("packing/simulated_fast_path");
    for packed in [false, true] {
        let name = if packed { "packed" } else { "separate" };
        group.bench_function(name, |b| {
            let (memory, _, proc_) = build(1 << 16, packed);
            b.iter(|| run_solo(memory.clone(), proc_.clone()).unwrap());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("packing/native_fast_path");
    group.bench_function("same_cache_line", |b| {
        let p = PackedPair::default();
        b.iter(|| fast_path_packed(&p));
    });
    group.bench_function("padded_lines", |b| {
        let p = PaddedPair::default();
        b.iter(|| fast_path_padded(&p));
    });
    group.finish();
}

criterion_group!(benches, bench_packing);
criterion_main!(benches);
