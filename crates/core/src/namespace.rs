//! The server's hierarchical namespace.
//!
//! "OMOS maintains and exports a hierarchical namespace, whose names
//! represent meta-objects, executable code fragments, or directories of
//! other objects." Binding a name invalidates downstream caches; the
//! namespace supports that with *epochs*: a global generation that bumps
//! on every mutation, plus a per-path record of the generation at which
//! each name was last touched. Cache layers snapshot the generation when
//! they derive something and later ask [`Namespace::any_touched_since`]
//! whether any of the paths they depended on changed — so defining an
//! unrelated name never invalidates them.
//!
//! The namespace is internally synchronized: every method takes `&self`,
//! so many server threads can resolve concurrently while binds
//! serialize briefly on the write lock.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use omos_blueprint::Blueprint;
use omos_obj::{ContentHash, ObjectFile};

use crate::error::OmosError;

/// What a namespace path names.
#[derive(Debug, Clone)]
pub enum Entry {
    /// A relocatable code/data fragment.
    Object(Arc<ObjectFile>),
    /// A meta-object: a blueprint describing how to build instances.
    Meta(Arc<Blueprint>),
}

/// One binding: the entry and, for a meta-object, its blueprint key.
/// The key is hashed once, at bind, so a request for the path never
/// re-hashes the m-graph.
#[derive(Debug)]
struct Binding {
    entry: Entry,
    key: Option<ContentHash>,
}

/// Entries plus the per-path touch epochs, guarded together so a bind
/// updates both atomically with respect to readers.
#[derive(Debug, Default)]
struct Tables {
    entries: BTreeMap<String, Binding>,
    /// Generation at which each path was last bound or unbound. Paths
    /// never touched are absent (epoch 0, before any snapshot).
    touched: BTreeMap<String, u64>,
}

/// The namespace: a path-keyed map with directory listing.
///
/// Directories are implicit (every path component). Paths are
/// `/`-separated and normalized.
#[derive(Debug, Default)]
pub struct Namespace {
    tables: RwLock<Tables>,
    generation: AtomicU64,
}

/// The normal form of `path`: one leading `/`, no empty components, no
/// trailing `/`. A path already in normal form (every path the server
/// itself records) is borrowed, not copied.
pub(crate) fn normalize(path: &str) -> Cow<'_, str> {
    let normal =
        path == "/" || (path.starts_with('/') && !path.ends_with('/') && !path.contains("//"));
    if normal {
        return Cow::Borrowed(path);
    }
    let mut out = String::from("/");
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        if !out.ends_with('/') {
            out.push('/');
        }
        out.push_str(comp);
    }
    Cow::Owned(out)
}

impl Namespace {
    /// An empty namespace.
    #[must_use]
    pub fn new() -> Namespace {
        Namespace::default()
    }

    /// Monotonic generation, bumped on every mutation. Cache layers
    /// snapshot it to date their dependency records.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn read(&self) -> RwLockReadGuard<'_, Tables> {
        self.tables
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a mutation of `path` under the write lock and returns the
    /// new generation.
    fn touch(&self, tables: &mut Tables, path: Cow<'_, str>) -> u64 {
        let g = self.generation.load(Ordering::Relaxed) + 1;
        tables.touched.insert(path.into_owned(), g);
        self.generation.store(g, Ordering::Release);
        g
    }

    /// Binds `entry` at `path` (replacing any existing entry).
    pub(crate) fn bind_entry(&self, path: &str, entry: Entry) {
        let p = normalize(path);
        let key = match &entry {
            Entry::Meta(bp) => Some(bp.hash()),
            Entry::Object(_) => None,
        };
        let mut t = self
            .tables
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        t.entries.insert(p.to_string(), Binding { entry, key });
        self.touch(&mut t, p);
    }

    /// Binds an object fragment at `path` (replacing any existing entry).
    pub fn bind_object(&self, path: &str, obj: ObjectFile) {
        self.bind_entry(path, Entry::Object(Arc::new(obj)));
    }

    /// Binds a meta-object at `path`.
    pub fn bind_meta(&self, path: &str, bp: Blueprint) {
        self.bind_entry(path, Entry::Meta(Arc::new(bp)));
    }

    /// Parses and binds blueprint text at `path`.
    pub fn bind_blueprint(&self, path: &str, src: &str) -> Result<(), OmosError> {
        let bp = Blueprint::parse(src)
            .map_err(|e| OmosError::Client(format!("blueprint at {path}: {e}")))?;
        self.bind_meta(path, bp);
        Ok(())
    }

    /// Removes a binding. Returns true if something was removed.
    pub fn unbind(&self, path: &str) -> bool {
        let p = normalize(path);
        let mut t = self
            .tables
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let removed = t.entries.remove(&*p).is_some();
        if removed {
            self.touch(&mut t, p);
        }
        removed
    }

    /// Looks a path up.
    #[must_use]
    pub fn lookup(&self, path: &str) -> Option<Entry> {
        self.lookup_keyed(path).map(|(entry, _)| entry)
    }

    /// Looks a path up with its blueprint key: a meta-object's key was
    /// hashed when it was bound (and equals its blueprint's `hash()`);
    /// an object has none. Both come from one read of the table, so the
    /// key always belongs to the entry beside it.
    #[must_use]
    pub fn lookup_keyed(&self, path: &str) -> Option<(Entry, Option<ContentHash>)> {
        self.read()
            .entries
            .get(&*normalize(path))
            .map(|b| (b.entry.clone(), b.key))
    }

    /// True if *any* of `paths` was bound or unbound after generation
    /// `gen` — the cache-validity query (one lock acquisition for the
    /// whole dependency set).
    #[must_use]
    pub fn any_touched_since<'a, I>(&self, paths: I, gen: u64) -> bool
    where
        I: IntoIterator<Item = &'a String>,
    {
        let t = self.read();
        paths
            .into_iter()
            .any(|p| t.touched.get(&*normalize(p)).is_some_and(|&g| g > gen))
    }

    /// Lists the immediate children of a directory path, with a marker
    /// for entry kind (`obj`, `meta`, `dir`).
    #[must_use]
    pub fn list(&self, path: &str) -> Vec<(String, &'static str)> {
        let p = normalize(path);
        let prefix = if p == "/" {
            "/".to_string()
        } else {
            format!("{p}/")
        };
        let t = self.read();
        let mut out: Vec<(String, &'static str)> = Vec::new();
        for (k, b) in t.entries.range(prefix.clone()..) {
            if !k.starts_with(&prefix) {
                break;
            }
            let rest = &k[prefix.len()..];
            if rest.is_empty() {
                continue;
            }
            match rest.find('/') {
                Some(i) => {
                    let dir = rest[..i].to_string();
                    if out.last().map(|(n, _)| n.as_str()) != Some(dir.as_str()) {
                        out.push((dir, "dir"));
                    }
                }
                None => {
                    let kind = match b.entry {
                        Entry::Object(_) => "obj",
                        Entry::Meta(_) => "meta",
                    };
                    out.push((rest.to_string(), kind));
                }
            }
        }
        out
    }

    /// Snapshot of every binding, in sorted path order (one lock
    /// acquisition — the checkpoint writer must not interleave with a
    /// bind). Entries share the namespace's `Arc`s; this copies no
    /// object or blueprint bodies.
    #[must_use]
    pub fn entries(&self) -> Vec<(String, Entry)> {
        self.read()
            .entries
            .iter()
            .map(|(k, b)| (k.clone(), b.entry.clone()))
            .collect()
    }

    /// Number of bound names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.read().entries.len()
    }

    /// True if nothing is bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.read().entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_isa::assemble;

    #[test]
    fn bind_lookup_unbind() {
        let ns = Namespace::new();
        ns.bind_object("/obj/ls.o", assemble("ls.o", ".text\nnop\n").unwrap());
        ns.bind_blueprint("/bin/ls", "(merge /obj/ls.o)").unwrap();
        assert!(matches!(ns.lookup("/obj/ls.o"), Some(Entry::Object(_))));
        assert!(matches!(ns.lookup("/bin/ls"), Some(Entry::Meta(_))));
        assert!(ns.lookup("/bin/missing").is_none());
        assert!(ns.unbind("/bin/ls"));
        assert!(!ns.unbind("/bin/ls"));
        assert!(ns.lookup("/bin/ls").is_none());
    }

    #[test]
    fn generation_bumps_on_mutation() {
        let ns = Namespace::new();
        let g0 = ns.generation();
        ns.bind_object("/a", assemble("a", ".text\nnop\n").unwrap());
        assert!(ns.generation() > g0);
        let g1 = ns.generation();
        ns.unbind("/a");
        assert!(ns.generation() > g1);
    }

    /// `any_touched_since` over one path.
    fn touched(ns: &Namespace, path: &str, gen: u64) -> bool {
        ns.any_touched_since(&[path.to_string()], gen)
    }

    #[test]
    fn touch_epochs_are_per_path() {
        let ns = Namespace::new();
        ns.bind_object("/a", assemble("a", ".text\nnop\n").unwrap());
        let snap = ns.generation();
        assert!(!touched(&ns, "/a", snap));
        ns.bind_object("/b", assemble("b", ".text\nnop\n").unwrap());
        assert!(!touched(&ns, "/a", snap), "binding /b leaves /a alone");
        assert!(touched(&ns, "/b", snap));
        let deps = vec!["/a".to_string(), "/b".to_string()];
        assert!(ns.any_touched_since(&deps, snap));
        assert!(!ns.any_touched_since(&deps[..1], snap));
        // Unbinding touches too (a dependent derivation is now stale).
        let snap2 = ns.generation();
        ns.unbind("/a");
        assert!(touched(&ns, "/a", snap2));
    }

    #[test]
    fn touch_epochs_normalize_paths() {
        let ns = Namespace::new();
        let snap = ns.generation();
        ns.bind_object("/lib//x.o", assemble("x", ".text\nnop\n").unwrap());
        assert!(touched(&ns, "/lib/x.o", snap));
        assert!(touched(&ns, "lib/x.o", snap));
    }

    #[test]
    fn bad_blueprint_rejected() {
        let ns = Namespace::new();
        assert!(ns.bind_blueprint("/bin/x", "(merge").is_err());
    }

    #[test]
    fn listing_shows_dirs_and_kinds() {
        let ns = Namespace::new();
        ns.bind_object("/lib/crt0.o", assemble("crt0", ".text\nnop\n").unwrap());
        ns.bind_blueprint("/lib/libc", "(merge /libc/gen)").unwrap();
        ns.bind_object("/libc/gen", assemble("gen", ".text\nnop\n").unwrap());
        let root = ns.list("/");
        assert_eq!(
            root,
            vec![("lib".to_string(), "dir"), ("libc".to_string(), "dir")]
        );
        let lib = ns.list("/lib");
        assert_eq!(
            lib,
            vec![("crt0.o".to_string(), "obj"), ("libc".to_string(), "meta")]
        );
    }

    #[test]
    fn paths_normalize() {
        let ns = Namespace::new();
        ns.bind_object("lib//x.o", assemble("x", ".text\nnop\n").unwrap());
        assert!(ns.lookup("/lib/x.o").is_some());
    }

    #[test]
    fn normal_paths_are_borrowed() {
        for p in ["/", "/a", "/lib/x.o", "/a/b/c"] {
            assert!(matches!(normalize(p), Cow::Borrowed(q) if q == p), "{p}");
        }
        for (p, want) in [
            ("", "/"),
            ("//", "/"),
            ("a", "/a"),
            ("/a/", "/a"),
            ("//a//b", "/a/b"),
            ("lib/x.o/", "/lib/x.o"),
        ] {
            assert!(
                matches!(normalize(p), Cow::Owned(ref q) if q == want),
                "{p}"
            );
        }
    }

    #[test]
    fn meta_bindings_carry_their_blueprint_key() {
        let ns = Namespace::new();
        ns.bind_object("/obj/a.o", assemble("a", ".text\nnop\n").unwrap());
        ns.bind_blueprint("/bin/a", "(merge /obj/a.o)").unwrap();
        let Some((Entry::Meta(bp), Some(key))) = ns.lookup_keyed("bin//a") else {
            panic!("a keyed meta-object");
        };
        assert_eq!(key, bp.hash());
        assert!(matches!(
            ns.lookup_keyed("/obj/a.o"),
            Some((Entry::Object(_), None))
        ));
        // A rebind re-keys the path.
        ns.bind_blueprint("/bin/a", "(hide \"_x\" (merge /obj/a.o))")
            .unwrap();
        let Some((Entry::Meta(bp2), Some(key2))) = ns.lookup_keyed("/bin/a") else {
            panic!("a keyed meta-object");
        };
        assert_eq!(key2, bp2.hash());
        assert_ne!(key2, key);
    }
}
