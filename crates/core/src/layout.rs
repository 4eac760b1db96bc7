//! Declarations of shared registers and packed words.

use std::fmt;

use crate::error::LayoutError;
use crate::ids::{RegisterId, WordId};
use crate::value::{Value, MAX_WIDTH};

/// The declaration of one shared register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegisterSpec {
    name: String,
    width: u32,
    init: Value,
    word: Option<WordId>,
}

impl RegisterSpec {
    /// The register's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The register's width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The register's initial value.
    pub fn init(&self) -> Value {
        self.init
    }

    /// The packed word this register belongs to, if any.
    pub fn word(&self) -> Option<WordId> {
        self.word
    }
}

/// A declaration of the shared memory used by an algorithm: a set of
/// registers with widths and initial values, plus optional *packed words*
/// grouping several registers for multi-grain atomic access \[MS93\].
///
/// # Examples
///
/// ```
/// use cfc_core::Layout;
///
/// let mut layout = Layout::new();
/// let x = layout.register("x", 4, 0);
/// let y = layout.bit("y", false);
/// assert_eq!(layout.width(x), 4);
/// assert_eq!(layout.width(y), 1);
/// assert_eq!(layout.max_register_width(), 4);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Layout {
    regs: Vec<RegisterSpec>,
    words: Vec<Vec<RegisterId>>,
}

impl Layout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Layout::default()
    }

    /// Declares a register of `width` bits initialized to `init`.
    ///
    /// # Panics
    ///
    /// Panics if the width is zero or exceeds [`MAX_WIDTH`], or if `init`
    /// does not fit in `width` bits. Use [`Layout::try_register`] for a
    /// fallible version.
    pub fn register(&mut self, name: impl Into<String>, width: u32, init: u64) -> RegisterId {
        match self.try_register(name, width, init) {
            Ok(r) => r,
            Err(e) => panic!("invalid register declaration: {e}"),
        }
    }

    /// Declares a register, returning an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidWidth`] for a zero or oversized width,
    /// or [`LayoutError::InitTooWide`] if `init` does not fit.
    pub fn try_register(
        &mut self,
        name: impl Into<String>,
        width: u32,
        init: u64,
    ) -> Result<RegisterId, LayoutError> {
        let name = name.into();
        if width == 0 || width > MAX_WIDTH {
            return Err(LayoutError::InvalidWidth { name, width });
        }
        let init = Value::new(init);
        if !init.fits(width) {
            return Err(LayoutError::InitTooWide {
                name,
                width,
                init: init.raw(),
            });
        }
        let id = RegisterId::new(self.regs.len() as u32);
        self.regs.push(RegisterSpec {
            name,
            width,
            init,
            word: None,
        });
        Ok(id)
    }

    /// Declares a single-bit register.
    pub fn bit(&mut self, name: impl Into<String>, init: bool) -> RegisterId {
        self.register(name, 1, init as u64)
    }

    /// Declares `count` single-bit registers named `prefix[0..count]`.
    pub fn bits(&mut self, prefix: &str, count: usize, init: bool) -> Vec<RegisterId> {
        (0..count)
            .map(|i| self.bit(format!("{prefix}[{i}]"), init))
            .collect()
    }

    /// Declares `count` registers of `width` bits named `prefix[0..count]`.
    pub fn array(&mut self, prefix: &str, count: usize, width: u32, init: u64) -> Vec<RegisterId> {
        (0..count)
            .map(|i| self.register(format!("{prefix}[{i}]"), width, init))
            .collect()
    }

    /// Packs registers into one word for multi-grain atomic access.
    ///
    /// All fields of a word can be read — and any subset written — in a
    /// single atomic event, provided the word's total width does not exceed
    /// the system atomicity (checked by [`Memory::new`](crate::Memory::new)).
    ///
    /// # Errors
    ///
    /// Returns an error if a register is unknown, already packed, or the
    /// list is empty.
    pub fn pack(&mut self, regs: &[RegisterId]) -> Result<WordId, LayoutError> {
        if regs.is_empty() {
            return Err(LayoutError::EmptyWord);
        }
        for &r in regs {
            let spec = self
                .regs
                .get(r.index())
                .ok_or(LayoutError::UnknownRegister(r))?;
            if spec.word.is_some() {
                return Err(LayoutError::AlreadyPacked(r));
            }
        }
        let id = WordId::new(self.words.len() as u32);
        for &r in regs {
            self.regs[r.index()].word = Some(id);
        }
        self.words.push(regs.to_vec());
        Ok(id)
    }

    /// The number of registers declared.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Returns `true` if no registers are declared.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// The number of packed words declared.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The specification of a register.
    ///
    /// # Panics
    ///
    /// Panics if the register id is out of range.
    pub fn spec(&self, r: RegisterId) -> &RegisterSpec {
        &self.regs[r.index()]
    }

    /// Looks up a register specification without panicking.
    pub fn get(&self, r: RegisterId) -> Option<&RegisterSpec> {
        self.regs.get(r.index())
    }

    /// The width of a register in bits.
    pub fn width(&self, r: RegisterId) -> u32 {
        self.spec(r).width
    }

    /// The initial value of a register.
    pub fn init(&self, r: RegisterId) -> Value {
        self.spec(r).init
    }

    /// The diagnostic name of a register.
    pub fn name(&self, r: RegisterId) -> &str {
        &self.spec(r).name
    }

    /// The member registers of a packed word, in field order.
    pub fn word_members(&self, w: WordId) -> Option<&[RegisterId]> {
        self.words.get(w.index()).map(Vec::as_slice)
    }

    /// The total width of a packed word in bits.
    pub fn word_width(&self, w: WordId) -> Option<u32> {
        self.words
            .get(w.index())
            .map(|members| members.iter().map(|&r| self.width(r)).sum())
    }

    /// The width of the widest single register.
    ///
    /// Together with packed-word widths this determines the minimum
    /// atomicity the layout requires.
    pub fn max_register_width(&self) -> u32 {
        self.regs.iter().map(|s| s.width).max().unwrap_or(0)
    }

    /// The minimum atomicity `l` that can host this layout: the maximum of
    /// all register widths and packed-word widths.
    pub fn required_atomicity(&self) -> u32 {
        let word_max = (0..self.words.len())
            .filter_map(|i| self.word_width(WordId::new(i as u32)))
            .max()
            .unwrap_or(0);
        self.max_register_width().max(word_max)
    }

    /// Iterates over `(RegisterId, &RegisterSpec)` pairs in declaration
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (RegisterId, &RegisterSpec)> {
        self.regs
            .iter()
            .enumerate()
            .map(|(i, s)| (RegisterId::new(i as u32), s))
    }

    /// All register ids in declaration order.
    pub fn register_ids(&self) -> impl Iterator<Item = RegisterId> {
        (0..self.regs.len() as u32).map(RegisterId::new)
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "layout ({} registers, {} words):",
            self.len(),
            self.word_count()
        )?;
        for (id, spec) in self.iter() {
            write!(
                f,
                "  {id} {name}: {width} bit(s), init {init}",
                name = spec.name(),
                width = spec.width(),
                init = spec.init()
            )?;
            if let Some(w) = spec.word() {
                write!(f, " (packed in {w})")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declares_registers_in_order() {
        let mut layout = Layout::new();
        let a = layout.register("a", 3, 5);
        let b = layout.bit("b", true);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(layout.len(), 2);
        assert_eq!(layout.name(a), "a");
        assert_eq!(layout.init(a), Value::new(5));
        assert_eq!(layout.width(b), 1);
        assert_eq!(layout.init(b), Value::ONE);
    }

    #[test]
    fn rejects_bad_widths() {
        let mut layout = Layout::new();
        assert!(matches!(
            layout.try_register("z", 0, 0),
            Err(LayoutError::InvalidWidth { .. })
        ));
        assert!(matches!(
            layout.try_register("z", 64, 0),
            Err(LayoutError::InvalidWidth { .. })
        ));
    }

    #[test]
    fn rejects_oversized_init() {
        let mut layout = Layout::new();
        assert!(matches!(
            layout.try_register("z", 2, 4),
            Err(LayoutError::InitTooWide { .. })
        ));
    }

    #[test]
    fn bits_helper_names_elements() {
        let mut layout = Layout::new();
        let bs = layout.bits("b", 3, false);
        assert_eq!(bs.len(), 3);
        assert_eq!(layout.name(bs[2]), "b[2]");
    }

    #[test]
    fn packing_groups_registers() {
        let mut layout = Layout::new();
        let x = layout.register("x", 4, 0);
        let y = layout.register("y", 4, 0);
        let z = layout.bit("z", false);
        let w = layout.pack(&[x, y]).unwrap();
        assert_eq!(layout.word_members(w), Some(&[x, y][..]));
        assert_eq!(layout.word_width(w), Some(8));
        assert_eq!(layout.spec(x).word(), Some(w));
        assert_eq!(layout.spec(z).word(), None);
        assert_eq!(layout.required_atomicity(), 8);
    }

    #[test]
    fn double_packing_rejected() {
        let mut layout = Layout::new();
        let x = layout.bit("x", false);
        let y = layout.bit("y", false);
        layout.pack(&[x]).unwrap();
        assert_eq!(layout.pack(&[x, y]), Err(LayoutError::AlreadyPacked(x)));
    }

    #[test]
    fn empty_pack_rejected() {
        let mut layout = Layout::new();
        assert_eq!(layout.pack(&[]), Err(LayoutError::EmptyWord));
    }

    #[test]
    fn unknown_register_pack_rejected() {
        let mut layout = Layout::new();
        let ghost = RegisterId::new(9);
        assert_eq!(
            layout.pack(&[ghost]),
            Err(LayoutError::UnknownRegister(ghost))
        );
    }

    #[test]
    fn display_mentions_every_register() {
        let mut layout = Layout::new();
        layout.register("x", 4, 1);
        let rendered = layout.to_string();
        assert!(rendered.contains("x"));
        assert!(rendered.contains("4 bit(s)"));
    }
}
