//! Symbols and symbol tables.
//!
//! A module in the Jigsaw sense is "a self-referential naming scope"; the
//! symbol table is the concrete representation of that scope: definitions
//! (bound names), references (free names), commons, and absolutes.

use std::collections::HashMap;

use crate::error::{ObjError, Result};
use crate::hash::Fnv64;

/// Linkage visibility of a symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolBinding {
    /// Participates in inter-module resolution.
    Global,
    /// Resolved only within its own object file.
    Local,
    /// Like global, but yields to a global definition on conflict.
    Weak,
}

impl SymbolBinding {
    /// Stable small integer for serialization.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            SymbolBinding::Global => 0,
            SymbolBinding::Local => 1,
            SymbolBinding::Weak => 2,
        }
    }

    /// Inverse of [`SymbolBinding::code`].
    #[must_use]
    pub fn from_code(c: u8) -> Option<SymbolBinding> {
        match c {
            0 => Some(SymbolBinding::Global),
            1 => Some(SymbolBinding::Local),
            2 => Some(SymbolBinding::Weak),
            _ => None,
        }
    }
}

/// What a symbol denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolDef {
    /// Defined at `offset` within section `section` (an index into the
    /// object's section list).
    Defined {
        /// Index of the defining section.
        section: usize,
        /// Byte offset within the section.
        offset: u64,
    },
    /// A common (tentatively defined, zero-initialized) symbol of `size`
    /// bytes, merged into BSS at link time.
    Common {
        /// Size in bytes.
        size: u64,
    },
    /// A free reference: used but not defined here.
    Undefined,
    /// An absolute value, independent of any section.
    Absolute {
        /// The value.
        value: u64,
    },
}

impl SymbolDef {
    /// True if this entry defines the symbol (including commons/absolutes).
    #[must_use]
    pub fn is_definition(&self) -> bool {
        !matches!(self, SymbolDef::Undefined)
    }
}

/// A named symbol-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// The symbol's name.
    pub name: String,
    /// Linkage visibility.
    pub binding: SymbolBinding,
    /// What the name denotes.
    pub def: SymbolDef,
    /// True once the binding has been *frozen* (made permanent by the
    /// `freeze`/`hide` operators); frozen bindings are immune to later
    /// `rename`/`restrict` operations.
    pub frozen: bool,
}

impl Symbol {
    /// Creates a global definition at `section`+`offset`.
    #[must_use]
    pub fn defined(name: &str, section: usize, offset: u64) -> Symbol {
        Symbol {
            name: name.to_string(),
            binding: SymbolBinding::Global,
            def: SymbolDef::Defined { section, offset },
            frozen: false,
        }
    }

    /// Creates an undefined (free) reference.
    #[must_use]
    pub fn undefined(name: &str) -> Symbol {
        Symbol {
            name: name.to_string(),
            binding: SymbolBinding::Global,
            def: SymbolDef::Undefined,
            frozen: false,
        }
    }

    /// Creates a common symbol of `size` bytes.
    #[must_use]
    pub fn common(name: &str, size: u64) -> Symbol {
        Symbol {
            name: name.to_string(),
            binding: SymbolBinding::Global,
            def: SymbolDef::Common { size },
            frozen: false,
        }
    }

    /// Creates an absolute symbol.
    #[must_use]
    pub fn absolute(name: &str, value: u64) -> Symbol {
        Symbol {
            name: name.to_string(),
            binding: SymbolBinding::Global,
            def: SymbolDef::Absolute { value },
            frozen: false,
        }
    }

    /// Marks this symbol local.
    #[must_use]
    pub fn local(mut self) -> Symbol {
        self.binding = SymbolBinding::Local;
        self
    }

    /// Marks this symbol weak.
    #[must_use]
    pub fn weak(mut self) -> Symbol {
        self.binding = SymbolBinding::Weak;
        self
    }
}

/// What becomes of a held entry when another entry of the same name
/// arrives ([`upgrade`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upgrade {
    /// The held entry stays.
    Keep,
    /// The arriving entry replaces the held one.
    Take,
    /// Both are commons: the held one grows to `size` bytes.
    Grow(u64),
    /// Two strong definitions clash.
    Duplicate,
}

/// The upgrade rule for two entries of one name, `cur` held and `new`
/// arriving, each as `(binding, def)` (mirroring classic Unix linkers):
/// * undefined + anything ⇒ the other;
/// * common + common ⇒ the larger common;
/// * common + defined ⇒ defined;
/// * weak definition + global definition ⇒ global;
/// * two weak definitions ⇒ the first;
/// * two strong definitions ⇒ [`Upgrade::Duplicate`].
///
/// [`SymbolTable::insert`] and the linker's resolution pass both apply it.
#[must_use]
pub fn upgrade(cur: (SymbolBinding, SymbolDef), new: (SymbolBinding, SymbolDef)) -> Upgrade {
    match (cur.1, new.1) {
        (SymbolDef::Undefined, _) => Upgrade::Take,
        (_, SymbolDef::Undefined) => Upgrade::Keep,
        (SymbolDef::Common { size: a }, SymbolDef::Common { size: b }) => Upgrade::Grow(a.max(b)),
        (SymbolDef::Common { .. }, _) => Upgrade::Take,
        // A real definition beats a common.
        (_, SymbolDef::Common { .. }) => Upgrade::Keep,
        _ => match (cur.0, new.0) {
            (SymbolBinding::Weak, SymbolBinding::Global) => Upgrade::Take,
            (SymbolBinding::Global | SymbolBinding::Weak, SymbolBinding::Weak) => Upgrade::Keep,
            _ => Upgrade::Duplicate,
        },
    }
}

/// An ordered symbol table with by-name lookup.
///
/// A table may contain at most one entry per name. (Separate *definition*
/// and *reference* entries for the same name collapse into one entry whose
/// `def` says which it is; a defined symbol is implicitly also referenceable.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    symbols: Vec<Symbol>,
    by_name: HashMap<String, usize>,
}

impl SymbolTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True if the table has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Iterates over entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.iter()
    }

    /// Iterates mutably (names must not be changed through this iterator;
    /// use [`SymbolTable::rename`] instead, which maintains the index).
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Symbol> {
        self.symbols.iter_mut()
    }

    /// Looks up an entry by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Symbol> {
        self.by_name.get(name).map(|&i| &self.symbols[i])
    }

    /// Looks up an entry mutably by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Symbol> {
        match self.by_name.get(name) {
            Some(&i) => Some(&mut self.symbols[i]),
            None => None,
        }
    }

    /// Inserts a new entry, or upgrades an existing one by [`upgrade`].
    pub fn insert(&mut self, sym: Symbol) -> Result<()> {
        let Some(&i) = self.by_name.get(&sym.name) else {
            self.by_name.insert(sym.name.clone(), self.symbols.len());
            self.symbols.push(sym);
            return Ok(());
        };
        let cur = &mut self.symbols[i];
        match upgrade((cur.binding, cur.def), (sym.binding, sym.def)) {
            Upgrade::Keep => {}
            Upgrade::Take => {
                let frozen = cur.frozen;
                *cur = sym;
                cur.frozen |= frozen;
            }
            Upgrade::Grow(size) => cur.def = SymbolDef::Common { size },
            Upgrade::Duplicate => return Err(ObjError::DuplicateSymbol(sym.name)),
        }
        Ok(())
    }

    /// Inserts an entry, replacing any existing entry for that name
    /// unconditionally (the `override` operator's conflict rule).
    pub fn insert_override(&mut self, sym: Symbol) {
        if let Some(&i) = self.by_name.get(&sym.name) {
            self.symbols[i] = sym;
        } else {
            self.by_name.insert(sym.name.clone(), self.symbols.len());
            self.symbols.push(sym);
        }
    }

    /// Removes an entry by name, returning it.
    pub fn remove(&mut self, name: &str) -> Option<Symbol> {
        let i = self.by_name.remove(name)?;
        let sym = self.symbols.remove(i);
        // Reindex everything after the removal point.
        for (j, s) in self.symbols.iter().enumerate().skip(i) {
            self.by_name.insert(s.name.clone(), j);
        }
        Some(sym)
    }

    /// Renames an entry, keeping the index consistent.
    ///
    /// Returns an error if `to` already exists or `from` does not.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        if from == to {
            return Ok(());
        }
        if self.by_name.contains_key(to) {
            return Err(ObjError::DuplicateSymbol(to.to_string()));
        }
        let i = *self
            .by_name
            .get(from)
            .ok_or_else(|| ObjError::UndefinedSymbol(from.to_string()))?;
        self.by_name.remove(from);
        self.symbols[i].name = to.to_string();
        self.by_name.insert(to.to_string(), i);
        Ok(())
    }

    /// Position of the entry named `name`, in insertion order.
    #[must_use]
    pub fn position(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Renames entries in place, keeping their positions: entry `i`
    /// takes `fresh[i]` when it is set.
    ///
    /// Returns an error, leaving the table partly renamed, if a new name
    /// is already taken.
    pub fn rename_positions(&mut self, fresh: Vec<Option<String>>) -> Result<()> {
        for (i, to) in fresh.into_iter().enumerate() {
            let Some(to) = to else { continue };
            if self.by_name.contains_key(&to) {
                return Err(ObjError::DuplicateSymbol(to));
            }
            self.by_name.remove(&self.symbols[i].name);
            self.by_name.insert(to.clone(), i);
            self.symbols[i].name = to;
        }
        Ok(())
    }

    /// Names of all definitions (including commons and absolutes).
    pub fn definitions(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.iter().filter(|s| s.def.is_definition())
    }

    /// Names of all free (undefined) references.
    pub fn undefined(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.iter().filter(|s| !s.def.is_definition())
    }

    /// Feeds the table into a hasher, in insertion order.
    pub fn hash_into(&self, h: &mut Fnv64) {
        for s in &self.symbols {
            h.write(s.name.as_bytes());
            h.write(&[0xff, s.binding.code(), u8::from(s.frozen)]);
            match s.def {
                SymbolDef::Defined { section, offset } => {
                    h.write(&[0]);
                    h.write(&(section as u64).to_le_bytes());
                    h.write(&offset.to_le_bytes());
                }
                SymbolDef::Common { size } => {
                    h.write(&[1]);
                    h.write(&size.to_le_bytes());
                }
                SymbolDef::Undefined => h.write(&[2]),
                SymbolDef::Absolute { value } => {
                    h.write(&[3]);
                    h.write(&value.to_le_bytes());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::defined("_main", 0, 0)).unwrap();
        t.insert(Symbol::undefined("_printf")).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.get("_main").unwrap().def.is_definition());
        assert!(!t.get("_printf").unwrap().def.is_definition());
        assert!(t.get("_missing").is_none());
    }

    #[test]
    fn undefined_upgrades_to_defined() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::undefined("_f")).unwrap();
        t.insert(Symbol::defined("_f", 0, 16)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get("_f").unwrap().def,
            SymbolDef::Defined {
                section: 0,
                offset: 16
            }
        );
    }

    #[test]
    fn defined_absorbs_reference() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::defined("_f", 0, 16)).unwrap();
        t.insert(Symbol::undefined("_f")).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.get("_f").unwrap().def.is_definition());
    }

    #[test]
    fn duplicate_strong_definitions_error() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::defined("_f", 0, 0)).unwrap();
        let err = t.insert(Symbol::defined("_f", 1, 8)).unwrap_err();
        assert_eq!(err, ObjError::DuplicateSymbol("_f".into()));
    }

    #[test]
    fn commons_take_max_size() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::common("_buf", 64)).unwrap();
        t.insert(Symbol::common("_buf", 128)).unwrap();
        t.insert(Symbol::common("_buf", 32)).unwrap();
        assert_eq!(t.get("_buf").unwrap().def, SymbolDef::Common { size: 128 });
    }

    #[test]
    fn definition_beats_common() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::common("_buf", 64)).unwrap();
        t.insert(Symbol::defined("_buf", 2, 0)).unwrap();
        assert_eq!(
            t.get("_buf").unwrap().def,
            SymbolDef::Defined {
                section: 2,
                offset: 0
            }
        );

        let mut t = SymbolTable::new();
        t.insert(Symbol::defined("_buf", 2, 0)).unwrap();
        t.insert(Symbol::common("_buf", 64)).unwrap();
        assert_eq!(
            t.get("_buf").unwrap().def,
            SymbolDef::Defined {
                section: 2,
                offset: 0
            }
        );
    }

    #[test]
    fn weak_yields_to_global() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::defined("_f", 0, 0).weak()).unwrap();
        t.insert(Symbol::defined("_f", 1, 4)).unwrap();
        assert_eq!(
            t.get("_f").unwrap().def,
            SymbolDef::Defined {
                section: 1,
                offset: 4
            }
        );

        let mut t = SymbolTable::new();
        t.insert(Symbol::defined("_f", 1, 4)).unwrap();
        t.insert(Symbol::defined("_f", 0, 0).weak()).unwrap();
        assert_eq!(
            t.get("_f").unwrap().def,
            SymbolDef::Defined {
                section: 1,
                offset: 4
            }
        );
    }

    #[test]
    fn upgrade_table_is_pinned() {
        // Every (binding, def) entry, in this order; rows are the held
        // entry, columns the arriving one. K keeps the held entry, T
        // takes the arriving one, G grows a common to the larger size
        // and D is a duplicate definition.
        let defs = [
            SymbolDef::Undefined,
            SymbolDef::Defined {
                section: 0,
                offset: 0,
            },
            SymbolDef::Common { size: 64 },
            SymbolDef::Absolute { value: 7 },
        ];
        let bindings = [
            SymbolBinding::Global,
            SymbolBinding::Weak,
            SymbolBinding::Local,
        ];
        let entries: Vec<(SymbolBinding, SymbolDef)> = bindings
            .iter()
            .flat_map(|&b| defs.iter().map(move |&d| (b, d)))
            .collect();
        #[rustfmt::skip]
        let table = [
            //  global    weak      local      arriving
            //  U D C A   U D C A   U D C A    held
            "TTTT TTTT TTTT", // global undefined
            "KDKD KKKK KDKD", // global defined
            "KTGT KTGT KTGT", // global common
            "KDKD KKKK KDKD", // global absolute
            "TTTT TTTT TTTT", // weak undefined
            "KTKT KKKK KDKD", // weak defined
            "KTGT KTGT KTGT", // weak common
            "KTKT KKKK KDKD", // weak absolute
            "TTTT TTTT TTTT", // local undefined
            "KDKD KDKD KDKD", // local defined
            "KTGT KTGT KTGT", // local common
            "KDKD KDKD KDKD", // local absolute
        ];
        for (&cur, row) in entries.iter().zip(table) {
            let row: Vec<char> = row.chars().filter(|c| *c != ' ').collect();
            assert_eq!(row.len(), entries.len());
            for (&new, want) in entries.iter().zip(row) {
                let held = Symbol {
                    name: "_x".into(),
                    binding: cur.0,
                    def: cur.1,
                    frozen: true,
                };
                let arriving = Symbol {
                    binding: new.0,
                    def: new.1,
                    frozen: false,
                    ..held.clone()
                };
                let mut t = SymbolTable::new();
                t.insert(held.clone()).unwrap();
                let inserted = t.insert(arriving.clone());
                let got = t.get("_x").unwrap();
                let case = format!("held {cur:?}, arriving {new:?}");
                match want {
                    'K' => {
                        assert_eq!(upgrade(cur, new), Upgrade::Keep, "{case}");
                        assert_eq!((inserted, got), (Ok(()), &held), "{case}");
                    }
                    'T' => {
                        assert_eq!(upgrade(cur, new), Upgrade::Take, "{case}");
                        let frozen = Symbol {
                            frozen: true,
                            ..arriving
                        };
                        assert_eq!((inserted, got), (Ok(()), &frozen), "{case}");
                    }
                    'G' => {
                        assert_eq!(upgrade(cur, new), Upgrade::Grow(64), "{case}");
                        assert_eq!((inserted, got), (Ok(()), &held), "{case}");
                    }
                    _ => {
                        assert_eq!(upgrade(cur, new), Upgrade::Duplicate, "{case}");
                        assert_eq!(inserted, Err(ObjError::DuplicateSymbol("_x".into())));
                        assert_eq!(got, &held, "{case}");
                    }
                }
            }
        }
        assert_eq!(
            upgrade(
                (SymbolBinding::Weak, SymbolDef::Common { size: 8 }),
                (SymbolBinding::Global, SymbolDef::Common { size: 32 })
            ),
            Upgrade::Grow(32)
        );
    }

    #[test]
    fn override_replaces_unconditionally() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::defined("_f", 0, 0)).unwrap();
        t.insert_override(Symbol::defined("_f", 3, 12));
        assert_eq!(
            t.get("_f").unwrap().def,
            SymbolDef::Defined {
                section: 3,
                offset: 12
            }
        );
    }

    #[test]
    fn remove_reindexes() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::defined("_a", 0, 0)).unwrap();
        t.insert(Symbol::defined("_b", 0, 4)).unwrap();
        t.insert(Symbol::defined("_c", 0, 8)).unwrap();
        let removed = t.remove("_b").unwrap();
        assert_eq!(removed.name, "_b");
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.get("_c").unwrap().def,
            SymbolDef::Defined {
                section: 0,
                offset: 8
            }
        );
        assert!(t.get("_b").is_none());
    }

    #[test]
    fn rename_maintains_index() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::defined("_malloc", 0, 0)).unwrap();
        t.rename("_malloc", "_REAL_malloc").unwrap();
        assert!(t.get("_malloc").is_none());
        assert!(t.get("_REAL_malloc").is_some());
        assert!(t.rename("_missing", "_x").is_err());
        t.insert(Symbol::defined("_other", 0, 4)).unwrap();
        assert!(t.rename("_other", "_REAL_malloc").is_err());
        // Renaming a symbol to itself is a no-op, not a duplicate error.
        t.rename("_other", "_other").unwrap();
    }

    #[test]
    fn definitions_and_undefined_split() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::defined("_a", 0, 0)).unwrap();
        t.insert(Symbol::undefined("_b")).unwrap();
        t.insert(Symbol::common("_c", 8)).unwrap();
        t.insert(Symbol::absolute("_d", 0x1000)).unwrap();
        assert_eq!(t.definitions().count(), 3);
        assert_eq!(t.undefined().count(), 1);
    }
}
