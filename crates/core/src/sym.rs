//! Process-symmetry groups for state-space reduction.
//!
//! In the paper's model a process's next step is a pure function of its
//! own local state: the executor never consults a process's position
//! when it applies an operation. So two processes are interchangeable
//! exactly when they start in equal local states. The naming algorithms
//! of Section 3 run such processes — every participant starts from the
//! identical state and diverges only through returned bit values — while
//! a mutual-exclusion client that embeds its pid starts distinct from
//! every peer. A [`SymmetryGroup`] records which process indices may be
//! permuted without changing the behaviour of the system, as a partition
//! of `0..n` into classes; [`SymmetryGroup::of_identical`] derives the
//! classes of a process vector, and the symmetry-reduced checkers in
//! `cfc-verify` canonicalize visited-state keys by sorting the local
//! states of each class, exploring one representative per orbit.

/// A partition of the process indices `0..n` into classes of
/// interchangeable processes.
///
/// Soundness contract: permuting the processes of one class (their local
/// states and liveness statuses, leaving shared memory untouched) must map
/// the initial state to itself and reachable global states to
/// equally-behaving global states. [`SymmetryGroup::of_identical`] meets
/// it for every process type of this workspace: a process's next step is
/// a pure function of its own state, and its classes hold only processes
/// whose initial states are equal. Checked properties must additionally be
/// invariant under such permutations (e.g. "at most one process in the
/// critical section", "decided names are pairwise distinct").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymmetryGroup {
    n: usize,
    classes: Vec<Vec<usize>>,
}

impl SymmetryGroup {
    /// The trivial group over `n` processes: nothing is interchangeable.
    ///
    /// Under this group, symmetry reduction is the identity: every orbit
    /// is a single state, so nothing merges.
    pub fn trivial(n: usize) -> Self {
        SymmetryGroup {
            n,
            classes: Vec::new(),
        }
    }

    /// The full symmetric group over `n` processes: every pair of
    /// processes is interchangeable.
    pub fn full(n: usize) -> Self {
        let classes = if n >= 2 {
            vec![(0..n).collect()]
        } else {
            Vec::new()
        };
        SymmetryGroup { n, classes }
    }

    /// The classes of processes that start identical: `procs` partitioned
    /// by equal local state. Classes come in the order of their first
    /// member, each sorted ascending, and singletons are dropped — so
    /// processes that all start distinct give the trivial group, and
    /// processes that all start equal give the full one.
    pub fn of_identical<P: PartialEq>(procs: &[P]) -> Self {
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for (i, p) in procs.iter().enumerate() {
            match classes.iter_mut().find(|c| procs[c[0]] == *p) {
                Some(class) => class.push(i),
                None => classes.push(vec![i]),
            }
        }
        classes.retain(|c| c.len() >= 2);
        SymmetryGroup {
            n: procs.len(),
            classes,
        }
    }

    /// A group from explicit classes; singleton and empty classes are
    /// dropped (they contribute nothing).
    ///
    /// # Panics
    ///
    /// Panics if an index is `>= n` or appears in two classes.
    pub fn from_classes(n: usize, classes: Vec<Vec<usize>>) -> Self {
        let mut seen = vec![false; n];
        let mut kept = Vec::new();
        for mut class in classes {
            class.sort_unstable();
            for &i in &class {
                assert!(i < n, "symmetry class index {i} out of range (n = {n})");
                assert!(!seen[i], "process {i} appears in two symmetry classes");
                seen[i] = true;
            }
            if class.len() >= 2 {
                kept.push(class);
            }
        }
        SymmetryGroup { n, classes: kept }
    }

    /// The number of processes the group is defined over.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The non-singleton classes, each sorted ascending.
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// Does the group permit no permutation at all?
    pub fn is_trivial(&self) -> bool {
        self.classes.iter().all(|c| c.len() < 2)
    }

    /// The product of the class factorials: how many permutations the
    /// group admits (the maximal orbit size).
    pub fn order(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| (1..=c.len() as u64).product::<u64>())
            .product()
    }

    /// The stabilizer of process `fixed`: the subgroup whose permutations
    /// leave `fixed` in place. Concretely, `fixed` is removed from its
    /// class (a class of size 2 thereby dissolves); all other classes are
    /// untouched.
    ///
    /// The per-victim liveness checker in `cfc-verify` quotients the
    /// state graph by this subgroup so that the identity of the
    /// (potentially starved) victim survives canonicalization while its
    /// peers still merge orbits.
    ///
    /// # Panics
    ///
    /// Panics if `fixed >= n`.
    pub fn stabilizer(&self, fixed: usize) -> SymmetryGroup {
        assert!(
            fixed < self.n,
            "process {fixed} out of range (n = {})",
            self.n
        );
        let classes = self
            .classes
            .iter()
            .map(|c| c.iter().copied().filter(|&i| i != fixed).collect())
            .collect();
        SymmetryGroup::from_classes(self.n, classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_and_full() {
        assert!(SymmetryGroup::trivial(4).is_trivial());
        assert_eq!(SymmetryGroup::trivial(4).order(), 1);
        let full = SymmetryGroup::full(4);
        assert!(!full.is_trivial());
        assert_eq!(full.classes(), &[vec![0, 1, 2, 3]]);
        assert_eq!(full.order(), 24);
        // Degenerate sizes are trivial.
        assert!(SymmetryGroup::full(1).is_trivial());
        assert!(SymmetryGroup::full(0).is_trivial());
    }

    #[test]
    fn of_identical_partitions_by_equal_state() {
        // All distinct: nothing is interchangeable.
        let g = SymmetryGroup::of_identical(&['a', 'b', 'c']);
        assert!(g.is_trivial());
        assert_eq!(g, SymmetryGroup::trivial(3));
        // All equal: the full group.
        assert_eq!(
            SymmetryGroup::of_identical(&[7, 7, 7, 7]),
            SymmetryGroup::full(4)
        );
        // Mixed: classes in first-occurrence order, members ascending,
        // singletons dropped.
        let g = SymmetryGroup::of_identical(&['x', 'y', 'z', 'y', 'x', 'w', 'x']);
        assert_eq!(g.n(), 7);
        assert_eq!(g.classes(), &[vec![0, 4, 6], vec![1, 3]]);
        assert_eq!(g.order(), 12);
        // Degenerate sizes are trivial.
        assert!(SymmetryGroup::of_identical::<u8>(&[]).is_trivial());
        assert!(SymmetryGroup::of_identical(&[1]).is_trivial());
    }

    #[test]
    fn from_classes_drops_singletons_and_sorts() {
        let g = SymmetryGroup::from_classes(5, vec![vec![3, 1], vec![2], vec![]]);
        assert_eq!(g.classes(), &[vec![1, 3]]);
        assert_eq!(g.n(), 5);
        assert_eq!(g.order(), 2);
    }

    #[test]
    fn stabilizer_fixes_the_victim() {
        let full = SymmetryGroup::full(4);
        let stab = full.stabilizer(1);
        assert_eq!(stab.classes(), &[vec![0, 2, 3]]);
        assert_eq!(stab.n(), 4);
        assert_eq!(stab.order(), 6);
        // A pair dissolves entirely.
        assert!(SymmetryGroup::full(2).stabilizer(0).is_trivial());
        // Fixing a process outside every class changes nothing.
        let g = SymmetryGroup::from_classes(4, vec![vec![1, 2]]);
        assert_eq!(g.stabilizer(3).classes(), g.classes());
        // The trivial group stays trivial.
        assert!(SymmetryGroup::trivial(3).stabilizer(2).is_trivial());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stabilizer_rejects_out_of_range() {
        let _ = SymmetryGroup::full(2).stabilizer(2);
    }

    #[test]
    #[should_panic(expected = "two symmetry classes")]
    fn overlapping_classes_rejected() {
        let _ = SymmetryGroup::from_classes(3, vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let _ = SymmetryGroup::from_classes(2, vec![vec![0, 5]]);
    }
}
