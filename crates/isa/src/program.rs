//! Assembled programs: a contiguous code image plus entry point.

use crate::fnv::fnv1a;
use crate::instr::{Addr, Instr, Uop, INSTR_BYTES};
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

/// Default base address for program text.
pub const DEFAULT_TEXT_BASE: Addr = 0x1_0000;

/// An assembled program: instructions laid out contiguously from a base
/// address, executed starting at [`Program::entry`].
///
/// The program counter is a byte address; instruction `i` lives at
/// `base + 4 * i`. Addresses outside the text image decode as invalid,
/// which a wrong-path fetch treats as a reconstruction/emulation stop.
///
/// # Examples
///
/// ```
/// use ffsim_isa::{Asm, Reg};
/// let mut asm = Asm::new();
/// asm.li(Reg::new(1), 42);
/// asm.halt();
/// let prog = asm.assemble()?;
/// assert_eq!(prog.len(), 2);
/// assert!(prog.instr_at(prog.entry()).is_some());
/// # Ok::<(), ffsim_isa::AsmError>(())
/// ```
#[derive(Clone)]
pub struct Program {
    base: Addr,
    entry: Addr,
    instrs: Vec<Instr>,
    /// [`Program::uops`]: one µop per text slot, shared by every clone.
    uops: Arc<[Uop]>,
    /// [`Program::text_digest`], computed on first use and shared by every
    /// clone.
    text_digest: Arc<OnceLock<u64>>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        (self.base, self.entry, &self.instrs) == (other.base, other.entry, &other.instrs)
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("base", &self.base)
            .field("entry", &self.entry)
            .field("instrs", &self.instrs)
            .finish()
    }
}

impl Program {
    /// Creates a program from raw instructions at a base address, entering
    /// at the first instruction.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 4-byte aligned or `instrs` is empty.
    #[must_use]
    pub fn new(base: Addr, instrs: Vec<Instr>) -> Program {
        assert_eq!(base % INSTR_BYTES, 0, "text base must be 4-byte aligned");
        assert!(!instrs.is_empty(), "program must contain instructions");
        Program {
            base,
            entry: base,
            uops: instrs.iter().map(Instr::uop).collect(),
            instrs,
            text_digest: Arc::default(),
        }
    }

    /// Creates a program with an explicit entry point.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Program::new`], or if `entry`
    /// does not address an instruction in the image.
    #[must_use]
    pub fn with_entry(base: Addr, entry: Addr, instrs: Vec<Instr>) -> Program {
        let mut p = Program::new(base, instrs);
        assert!(
            p.instr_at(entry).is_some(),
            "entry point {entry:#x} outside program text"
        );
        p.entry = entry;
        p
    }

    /// 64-bit FNV-1a of the program's listing: a `base {:#x}` line, an
    /// `entry {:#x}` line, then each instruction's disassembly on a line
    /// of its own. Computed once and shared by every clone, so a caller
    /// that keys results by program text pays for the formatting once per
    /// program. FNV-1a has no finalization step, so a caller can go on
    /// folding bytes after the listing from this value.
    #[must_use]
    pub fn text_digest(&self) -> u64 {
        *self.text_digest.get_or_init(|| {
            let mut text = String::new();
            let _ = writeln!(text, "base {:#x}", self.base);
            let _ = writeln!(text, "entry {:#x}", self.entry);
            for instr in &self.instrs {
                let _ = writeln!(text, "{instr}");
            }
            fnv1a(text.as_bytes())
        })
    }

    /// The decoded µop of every text slot: entry `i` is the
    /// [`Instr::uop`] of the instruction at `base + 4 * i`. Decoded once
    /// when the program is built and shared by every clone, so a timing
    /// model that holds the table never decodes an instruction it times.
    #[must_use]
    pub fn uops(&self) -> &Arc<[Uop]> {
        &self.uops
    }

    /// The address of the first instruction.
    #[must_use]
    pub fn base(&self) -> Addr {
        self.base
    }

    /// The entry-point address.
    #[must_use]
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Number of instructions in the image.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty (never true for a constructed program).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// One-past-the-end address of the text image.
    #[must_use]
    pub fn end(&self) -> Addr {
        self.base + self.instrs.len() as Addr * INSTR_BYTES
    }

    /// The instruction at byte address `pc`, or `None` if `pc` is unaligned
    /// or outside the image.
    #[must_use]
    pub fn instr_at(&self, pc: Addr) -> Option<&Instr> {
        if pc < self.base || !pc.is_multiple_of(INSTR_BYTES) {
            return None;
        }
        self.instrs.get(((pc - self.base) / INSTR_BYTES) as usize)
    }

    /// Whether `pc` addresses an instruction in the image.
    #[must_use]
    pub fn contains(&self, pc: Addr) -> bool {
        self.instr_at(pc).is_some()
    }

    /// Iterates over `(address, instruction)` pairs in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &Instr)> {
        self.instrs
            .iter()
            .enumerate()
            .map(move |(i, ins)| (self.base + i as Addr * INSTR_BYTES, ins))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (addr, ins) in self.iter() {
            let marker = if addr == self.entry { ">" } else { " " };
            writeln!(f, "{marker}{addr:#8x}: {ins}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    fn sample() -> Program {
        Program::new(0x1000, vec![Instr::Nop, Instr::Nop, Instr::Halt])
    }

    #[test]
    fn addressing_roundtrip() {
        let p = sample();
        assert_eq!(p.base(), 0x1000);
        assert_eq!(p.entry(), 0x1000);
        assert_eq!(p.len(), 3);
        assert_eq!(p.end(), 0x100c);
        assert_eq!(p.instr_at(0x1008), Some(&Instr::Halt));
        assert!(p.instr_at(0x100c).is_none());
        assert!(p.instr_at(0xffc).is_none());
        assert!(p.instr_at(0x1002).is_none(), "unaligned pc must not decode");
    }

    #[test]
    fn iter_yields_addresses_in_order() {
        let p = sample();
        let addrs: Vec<_> = p.iter().map(|(a, _)| a).collect();
        assert_eq!(addrs, vec![0x1000, 0x1004, 0x1008]);
    }

    #[test]
    fn explicit_entry() {
        let p = Program::with_entry(0x1000, 0x1004, vec![Instr::Nop, Instr::Halt]);
        assert_eq!(p.entry(), 0x1004);
    }

    #[test]
    #[should_panic(expected = "outside program text")]
    fn bad_entry_panics() {
        let _ = Program::with_entry(0x1000, 0x2000, vec![Instr::Nop]);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_base_panics() {
        let _ = Program::new(0x1001, vec![Instr::Nop]);
    }

    #[test]
    fn text_digest_is_shared_by_clones_and_ignored_by_equality() {
        let p = sample();
        let clone = p.clone();
        let digest = p.text_digest();
        assert!(
            clone.text_digest.get().is_some(),
            "the clone shares the memo"
        );
        assert_eq!(clone.text_digest(), digest);
        assert_eq!(p, sample(), "a digested program equals an undigested one");
        let other = Program::with_entry(0x1000, 0x1004, vec![Instr::Nop, Instr::Nop, Instr::Halt]);
        assert_ne!(other.text_digest(), digest, "the entry is part of the text");
    }

    #[test]
    fn uop_table_is_decoded_per_slot_and_shared_by_clones() {
        let p = sample();
        let uops: Vec<Uop> = p.iter().map(|(_, i)| i.uop()).collect();
        assert_eq!(&p.uops()[..], &uops[..]);
        assert!(Arc::ptr_eq(p.uops(), p.clone().uops()));
    }

    #[test]
    fn display_marks_entry() {
        let p = sample();
        let text = p.to_string();
        assert!(text.contains("halt"));
        assert!(text.lines().next().unwrap().starts_with('>'));
    }
}
