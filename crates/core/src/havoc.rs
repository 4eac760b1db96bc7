//! Havoc semantics: the feasible results of one operation when shared
//! memory is unconstrained.
//!
//! The paper's central object is the *contention-free* (solo) execution:
//! a process running with no interference. To reason about **all** solo
//! behaviors at once — and about a process's behavior embedded in an
//! arbitrary concurrent run — the control-automaton analysis in
//! `cfc-verify` steps a process over a *havoc* memory in which every
//! read may return any value the register's layout width admits. This
//! module enumerates that result domain for one operation, lazily: a
//! 16-bit read has 65,536 results, and the analysis steps each one as
//! it is produced instead of first collecting them all.
//!
//! Soundness is by construction: the concrete result any real memory
//! returns for an operation is drawn from the domain enumerated here
//! (reads are masked to the register width on every write path, bit
//! operations return bits, packed reads return per-member masked
//! values). Writes observe nothing, so they have the singleton domain
//! `[OpResult::None]`.

use crate::ids::RegisterId;
use crate::layout::Layout;
use crate::op::{Op, OpResult};
use crate::value::Value;

/// Result domains wider than `2^HAVOC_WIDTH_CAP` are not enumerated;
/// [`op_result_domain`] returns `None` and the caller must fall back to
/// a conservative analysis. 16 bits covers every modeled family
/// (bakery tickets are the widest at 16 bits — and bakery's reads feed
/// only order comparisons, so its location hook projects the ticket
/// values away before the domain is ever consulted).
pub const HAVOC_WIDTH_CAP: u32 = 16;

/// What each member of a result domain carries.
#[derive(Clone, Copy)]
enum Shape<'a> {
    /// `OpResult::None`: the op observes nothing.
    Nothing,
    /// `OpResult::Value` of the member's index.
    Value,
    /// `OpResult::Values` of the index split into the word's members.
    Values(&'a [RegisterId]),
}

/// Enumerates every result the operation can observe under havoc
/// memory, lazily and in a fixed deterministic order: increasing raw
/// value, and packed-word members varying last-member-fastest. The
/// iterator knows its exact length up front and allocates nothing,
/// except the member vector of each packed-word result.
///
/// Returns `None` when the domain would exceed `2^`[`HAVOC_WIDTH_CAP`]
/// members — the caller must then treat the process as unanalyzable
/// (which is always sound) rather than enumerate billions of branches.
pub fn op_result_domain<'a>(
    op: &Op,
    layout: &'a Layout,
) -> Option<impl ExactSizeIterator<Item = OpResult> + 'a> {
    // Every domain is `2^width` members, each a function of its index.
    let (width, shape) = match op {
        Op::Read(r) => (layout.width(*r), Shape::Value),
        // A read–modify–write bit op observes the old bit.
        Op::Bit(_, bop) if bop.returns_value() => (1, Shape::Value),
        Op::Write(..) | Op::WriteWord(..) | Op::Bit(..) => (0, Shape::Nothing),
        Op::ReadWord(w) => {
            let members = layout.word_members(*w)?;
            let total = members.iter().map(|&r| layout.width(r)).sum();
            (total, Shape::Values(members))
        }
    };
    if width > HAVOC_WIDTH_CAP {
        return None;
    }
    Some((0..1usize << width).map(move |k| match shape {
        Shape::Nothing => OpResult::None,
        Shape::Value => OpResult::Value(Value::new(k as u64)),
        // The member-value vector `Memory::apply` returns: the last
        // member takes the index's low bits, so it varies fastest.
        Shape::Values(members) => {
            let mut vs = vec![Value::ZERO; members.len()];
            let mut rest = k as u64;
            for (v, &r) in vs.iter_mut().zip(members).rev() {
                let width = layout.width(r);
                *v = Value::new(rest & ((1 << width) - 1));
                rest >>= width;
            }
            OpResult::Values(vs)
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitop::BitOp;
    use crate::ids::WordId;

    /// The whole domain, checking the iterator's reported length first.
    fn domain(op: &Op, layout: &Layout) -> Vec<OpResult> {
        let it = op_result_domain(op, layout).unwrap();
        let len = it.len();
        let all: Vec<OpResult> = it.collect();
        assert_eq!(all.len(), len, "{op}: exact size disagrees with the count");
        all
    }

    fn values(raw: &[u64]) -> Vec<OpResult> {
        raw.iter()
            .map(|&v| OpResult::Value(Value::new(v)))
            .collect()
    }

    #[test]
    fn read_domain_covers_the_width() {
        let mut layout = Layout::new();
        let r = layout.register("r", 2, 0);
        assert_eq!(domain(&Op::Read(r), &layout), values(&[0, 1, 2, 3]));
        let wide = layout.register("wide", HAVOC_WIDTH_CAP, 0);
        let all = domain(&Op::Read(wide), &layout);
        assert_eq!(all.len(), 1 << HAVOC_WIDTH_CAP);
        assert_eq!(all[0xbeef], OpResult::Value(Value::new(0xbeef)));
    }

    #[test]
    fn writes_observe_nothing() {
        let mut layout = Layout::new();
        let r = layout.register("r", 4, 0);
        let w = layout.pack(&[r]).unwrap();
        assert_eq!(
            domain(&Op::Write(r, Value::new(9)), &layout),
            [OpResult::None]
        );
        assert_eq!(
            domain(&Op::WriteWord(w, vec![(r, Value::ONE)]), &layout),
            [OpResult::None]
        );
    }

    #[test]
    fn bit_ops_split_on_returns_value() {
        let mut layout = Layout::new();
        let b = layout.bit("b", false);
        for bop in BitOp::ALL {
            let got = domain(&Op::Bit(b, bop), &layout);
            if bop.returns_value() {
                assert_eq!(got, values(&[0, 1]), "{bop}");
            } else {
                assert_eq!(got, [OpResult::None], "{bop}");
            }
        }
    }

    #[test]
    fn word_read_is_the_member_product() {
        let mut layout = Layout::new();
        let x = layout.register("x", 1, 0);
        let y = layout.register("y", 2, 0);
        let w = layout.pack(&[x, y]).unwrap();
        let expected: Vec<OpResult> = (0..2u64)
            .flat_map(|a| {
                (0..4u64).map(move |b| OpResult::Values(vec![Value::new(a), Value::new(b)]))
            })
            .collect();
        assert_eq!(domain(&Op::ReadWord(w), &layout), expected);
        assert_eq!(
            expected[5],
            OpResult::Values(vec![Value::new(1), Value::new(1)])
        );
        assert!(op_result_domain(&Op::ReadWord(WordId::new(9)), &layout).is_none());
    }

    #[test]
    fn wide_reads_refuse_to_enumerate() {
        let mut layout = Layout::new();
        let r = layout.register("r", HAVOC_WIDTH_CAP + 1, 0);
        assert!(op_result_domain(&Op::Read(r), &layout).is_none());
        let x = layout.register("x", HAVOC_WIDTH_CAP, 0);
        let y = layout.bit("y", false);
        let w = layout.pack(&[x, y]).unwrap();
        assert!(op_result_domain(&Op::ReadWord(w), &layout).is_none());
    }
}
