//! Diff-driven relink planning.
//!
//! A rebind dirties a known set of symbols and placements — the
//! manifest diff computes it. [`plan_relink`] turns an old→new manifest
//! pair into a [`RelinkPlan`] that explains what a rebuild will redo:
//! per library, either **reuse** (the new manifest commits to exactly
//! the resolution the old one recorded, so the cached image — content
//! key, placement, and the extern bindings its link reads all unchanged
//! — is byte-valid as-is) or **relink** (anything about the library's
//! resolution moved). The program frame relinks whenever its own image
//! key moved: its content, its bases, or a library binding it reads.
//! A rebuilt library whose bindings the program does not read leaves
//! it reused.
//!
//! The plan is an offline tool (`ofe relink`): the server does not
//! execute it. Its rebuild is the ordinary build, which finds a reused
//! library's image in the image cache under the same key, and links it
//! afresh if the image was evicted from both tiers — relinking a clean
//! library reproduces the identical image by construction.

use crate::manifest::{diff, ManifestDiff, ResolutionManifest};

/// Planned disposition of one library in the new resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibAction {
    /// The library's entire resolution (content key, placement, image
    /// key) is unchanged: the cached image is valid, no linker runs.
    Reuse,
    /// Something about the resolution moved: place and link afresh.
    Relink,
}

/// One library's row in the plan, in resolution order of the *new*
/// manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedLib {
    /// Library name.
    pub name: String,
    /// What to do.
    pub action: LibAction,
}

/// An executable relink plan: which parts of the subgraph are dirty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelinkPlan {
    /// Per-library dispositions, in the new manifest's resolution order.
    pub libraries: Vec<PlannedLib>,
    /// Whether the program frame must relink. True whenever the program
    /// image key moved (any library change implies this).
    pub program_relink: bool,
    /// The underlying manifest diff (changed-symbol set, placement
    /// deltas) — what `ofe relink --explain` renders.
    pub diff: ManifestDiff,
}

impl RelinkPlan {
    /// Libraries planned for reuse.
    #[must_use]
    pub fn reused(&self) -> usize {
        self.libraries
            .iter()
            .filter(|l| l.action == LibAction::Reuse)
            .count()
    }

    /// Libraries planned for relink.
    #[must_use]
    pub fn relinked(&self) -> usize {
        self.libraries.len() - self.reused()
    }

    /// True when nothing relinks — the diff was empty (or touched only
    /// bindings the program does not re-export), so every image is
    /// reusable as-is.
    #[must_use]
    pub fn is_full_reuse(&self) -> bool {
        !self.program_relink && self.relinked() == 0
    }

    /// Human-readable rendering (the body of `ofe relink`).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "relink plan: {} reused, {} relinked, program {}",
            self.reused(),
            self.relinked(),
            if self.program_relink {
                "relinked"
            } else {
                "reused"
            }
        );
        for l in &self.libraries {
            let _ = writeln!(
                s,
                "  {} {}",
                match l.action {
                    LibAction::Reuse => "reuse ",
                    LibAction::Relink => "relink",
                },
                l.name
            );
        }
        let dirty = self.diff.changed_symbols();
        let _ = writeln!(s, "  dirty symbols: {}", dirty.len());
        for sym in &dirty {
            let _ = writeln!(s, "    {sym}");
        }
        s
    }
}

/// Plans the relink that carries `before`'s artifacts to
/// `after`'s resolution. A library reuses if and only if an *identical*
/// [`crate::manifest::LibraryResolution`] row (same name, content key,
/// placement, and image key) exists in `before` — the image key covers
/// the extern bindings the link reads, so equality proves the cached
/// image's bytes are the ones a fresh link would produce.
#[must_use]
pub fn plan_relink(before: &ResolutionManifest, after: &ResolutionManifest) -> RelinkPlan {
    let d = diff(before, after);
    let libraries = after
        .libraries
        .iter()
        .map(|l| PlannedLib {
            name: l.name.clone(),
            action: if before.libraries.iter().any(|b| b == l) {
                LibAction::Reuse
            } else {
                LibAction::Relink
            },
        })
        .collect();
    // A policy change is a binding change even when placement and image
    // keys happen to coincide (e.g. a deny policy added to a program
    // that never violates it changes no byte but must re-derive): the
    // program frame rebuilds so the recorded policy set is honest.
    let program_relink = before.program != after.program || d.policies_changed;
    RelinkPlan {
        libraries,
        program_relink,
        diff: d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{
        Binding, LibraryResolution, ProgramResolution, CLIENT_DATA_BASE, CLIENT_TEXT_BASE,
    };
    use omos_obj::ContentHash;

    fn lib(name: &str, key: u64, text: u32, image: u64) -> LibraryResolution {
        LibraryResolution {
            name: name.into(),
            key: ContentHash(key),
            text_base: text,
            data_base: text + 0x4000_0000,
            image_key: ContentHash(image),
        }
    }

    fn manifest(libs: Vec<LibraryResolution>, program_image: u64) -> ResolutionManifest {
        ResolutionManifest {
            root: ContentHash(1),
            libraries: libs,
            program: ProgramResolution {
                text_base: CLIENT_TEXT_BASE,
                data_base: CLIENT_DATA_BASE,
                image_key: ContentHash(program_image),
            },
            bindings: vec![Binding {
                symbol: "_f".into(),
                provider: "liba".into(),
                addr: 0x0100_0000,
            }],
            interpositions: vec![],
            policies: vec![],
        }
    }

    #[test]
    fn identical_manifests_plan_full_reuse() {
        let m = manifest(vec![lib("liba", 7, 0x0100_0000, 70)], 100);
        let p = plan_relink(&m, &m);
        assert!(p.is_full_reuse());
        assert_eq!(p.reused(), 1);
        assert_eq!(p.relinked(), 0);
        assert!(p.diff.is_empty());
    }

    #[test]
    fn only_the_changed_library_relinks() {
        let before = manifest(
            vec![
                lib("liba", 7, 0x0100_0000, 70),
                lib("libb", 8, 0x0200_0000, 80),
            ],
            100,
        );
        let mut after = manifest(
            vec![
                lib("liba", 7, 0x0100_0000, 70),
                lib("libb", 9, 0x0200_0000, 81),
            ],
            101,
        );
        after.bindings[0].addr = 0x0100_0004;
        let p = plan_relink(&before, &after);
        assert_eq!(p.reused(), 1);
        assert_eq!(p.relinked(), 1);
        assert!(p.program_relink);
        assert_eq!(p.libraries[0].action, LibAction::Reuse);
        assert_eq!(p.libraries[1].action, LibAction::Relink);
        assert_eq!(p.diff.changed_symbols(), ["_f"]);
    }

    #[test]
    fn placement_move_alone_forces_relink() {
        let before = manifest(vec![lib("liba", 7, 0x0100_0000, 70)], 100);
        let after = manifest(vec![lib("liba", 7, 0x0300_0000, 71)], 101);
        let p = plan_relink(&before, &after);
        assert_eq!(p.relinked(), 1);
        assert!(p.program_relink);
    }

    #[test]
    fn added_library_relinks_without_touching_others() {
        let before = manifest(vec![lib("liba", 7, 0x0100_0000, 70)], 100);
        let after = manifest(
            vec![
                lib("liba", 7, 0x0100_0000, 70),
                lib("libnew", 9, 0x0200_0000, 90),
            ],
            102,
        );
        let p = plan_relink(&before, &after);
        assert_eq!(p.reused(), 1);
        assert_eq!(p.relinked(), 1);
        assert_eq!(p.libraries[1].name, "libnew");
        assert_eq!(p.libraries[1].action, LibAction::Relink);
    }

    #[test]
    fn render_names_dispositions_and_dirty_symbols() {
        let before = manifest(vec![lib("liba", 7, 0x0100_0000, 70)], 100);
        let mut after = manifest(vec![lib("liba", 8, 0x0100_0000, 71)], 101);
        after.bindings[0].addr = 0x0100_0008;
        let s = plan_relink(&before, &after).render();
        assert!(s.contains("relink liba"));
        assert!(s.contains("program relinked"));
        assert!(s.contains("dirty symbols: 1"));
        assert!(s.contains("_f"));
    }
}
