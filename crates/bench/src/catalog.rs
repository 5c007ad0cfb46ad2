//! Million-program catalog: the synthetic program universe and its
//! Zipfian driver.
//!
//! The paper's OMOS is a *persistent* server: the image cache is the
//! product, and its interesting regime is a catalog far larger than
//! memory. This module grows the evaluation toward that regime with a
//! seeded generator that emits a parameterized catalog of program
//! blueprints over a shared long-tail library pool, plus a Zipfian
//! request driver:
//!
//! * [`Catalog::generate`] — deterministic for a given
//!   [`CatalogSpec`]: `libraries` constraint-placed libraries whose
//!   text sizes follow a long tail (most small, a few large), and
//!   `programs` blueprints that each merge a unique app object with a
//!   popularity-skewed sample of the pool. Popular libraries appear in
//!   thousands of programs; tail libraries in a handful.
//! * [`drive`] — replays `requests` Zipfian-sampled instantiations
//!   against a server, with periodic idempotent library rebinds
//!   ("churn") that invalidate dependent reply rows without changing
//!   any image bytes. Every churned program must re-probe the image
//!   cache, so the measured hit rate is a property of the *eviction
//!   policy* under the byte budget, not of the unbounded reply cache.
//! * [`CachePlan`] — the cache configurations the curves compare:
//!   generation-order eviction, cost-aware (GDSF) eviction, and
//!   cost-aware plus the tier-2 spill store.
//!
//! The headline metric is the **relink-avoidance rate**: the fraction
//! of image-cache probes answered without paying a relink, i.e.
//! `(tier-1 hits + tier-2 fault-ins) / probes`. All counts are in the
//! simulation domain and deterministic for a given seed when driven
//! from one thread, which is what the golden smoke gate replays.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use omos_core::json::Json;
use omos_core::{EvictionPolicy, ImageCache, Omos, SpillTier};
use omos_obj::{ObjectFile, Section, SectionKind, Symbol};
use omos_os::ipc::Transport;
use omos_os::CostModel;

/// Zipf exponent for *library popularity inside the generator*: how
/// skewed the per-program library samples are. The driver's request
/// skew is a separate, per-run parameter ([`DriveCfg::s`]).
const LIB_POPULARITY_S: f64 = 0.9;

/// Shape of a generated catalog. Generation is a pure function of the
/// spec — same spec, same catalog, bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct CatalogSpec {
    /// Programs in the catalog.
    pub programs: usize,
    /// Libraries in the shared pool.
    pub libraries: usize,
    /// Libraries per program, sampled uniformly from this inclusive
    /// range (then drawn from the pool with Zipfian popularity).
    pub libs_per_program: (usize, usize),
    /// Generator seed.
    pub seed: u64,
}

impl CatalogSpec {
    /// The 1k-program catalog (the CI smoke size).
    #[must_use]
    pub fn small() -> CatalogSpec {
        CatalogSpec {
            programs: 1_000,
            libraries: 192,
            libs_per_program: (2, 6),
            seed: 42,
        }
    }

    /// The 10k-program catalog (the report size).
    #[must_use]
    pub fn large() -> CatalogSpec {
        CatalogSpec {
            programs: 10_000,
            libraries: 512,
            libs_per_program: (2, 6),
            seed: 42,
        }
    }
}

/// A generated catalog: the library pool and each program's sample.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// The spec this catalog was generated from.
    pub spec: CatalogSpec,
    /// Library objects, index `i` bound at [`lib_obj_path`]`(i)`.
    pub lib_objects: Vec<ObjectFile>,
    /// Library text sizes in bytes (the long tail).
    pub lib_sizes: Vec<usize>,
    /// Program `j`'s library indices, in merge order.
    pub program_libs: Vec<Vec<usize>>,
}

/// Namespace path of library object `i`.
#[must_use]
pub fn lib_obj_path(i: usize) -> String {
    format!("/cat/obj/l{i}.o")
}

/// Namespace path of library blueprint `i`.
#[must_use]
pub fn lib_path(i: usize) -> String {
    format!("/cat/lib/l{i}")
}

/// Namespace path of program `j`.
#[must_use]
pub fn program_path(j: usize) -> String {
    format!("/cat/p{j}")
}

/// Inverse-CDF sampler over a Zipf(s) distribution on `0..n`: rank 0
/// is the most popular item.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the cumulative distribution for `n` items at exponent
    /// `s` (`s == 0` is uniform).
    #[must_use]
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "empty Zipf domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        // 53 mantissa bits of uniformity, like `gen_bool`.
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c < unit)
            .min(self.cdf.len() - 1)
    }
}

/// Draws a long-tail text size: mostly small modules, some mid-sized,
/// a few large (the shape of a real library pool, where libc-like
/// giants coexist with single-function utilities).
fn long_tail_size(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..100u32) {
        0..=69 => rng.gen_range(256..2_048usize),
        70..=94 => rng.gen_range(2_048..16_384usize),
        _ => rng.gen_range(16_384..65_536usize),
    }
}

impl Catalog {
    /// Generates the catalog for `spec`. Deterministic: the same spec
    /// yields byte-identical objects and samples.
    #[must_use]
    pub fn generate(spec: CatalogSpec) -> Catalog {
        assert!(spec.libraries > 0 && spec.programs > 0);
        assert!(spec.libs_per_program.0 >= 1);
        assert!(spec.libs_per_program.0 <= spec.libs_per_program.1);
        assert!(
            spec.libs_per_program.1 <= spec.libraries,
            "programs cannot sample more libraries than the pool holds"
        );
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut lib_objects = Vec::with_capacity(spec.libraries);
        let mut lib_sizes = Vec::with_capacity(spec.libraries);
        for i in 0..spec.libraries {
            let size = long_tail_size(&mut rng);
            let mut bytes = vec![0u8; size];
            // Unique, index-derived content so every library has its
            // own content hash (and the fill is not all-zero).
            bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
            for (off, b) in bytes.iter_mut().enumerate().skip(8) {
                *b = ((i * 131 + off * 31) % 251) as u8;
            }
            let mut o = ObjectFile::new(&format!("l{i}.o"));
            let t = o.add_section(Section::with_bytes(".text", SectionKind::Text, bytes, 8));
            o.define(Symbol::defined(&format!("_cl{i}"), t, 0))
                .expect("unique library symbol");
            lib_objects.push(o);
            lib_sizes.push(size);
        }

        let popularity = ZipfSampler::new(spec.libraries, LIB_POPULARITY_S);
        let (lo, hi) = spec.libs_per_program;
        let mut program_libs = Vec::with_capacity(spec.programs);
        for _ in 0..spec.programs {
            let k = rng.gen_range(lo..hi + 1);
            let mut libs: Vec<usize> = Vec::with_capacity(k);
            while libs.len() < k {
                let lib = popularity.sample(&mut rng);
                if !libs.contains(&lib) {
                    libs.push(lib);
                }
            }
            program_libs.push(libs);
        }
        Catalog {
            spec,
            lib_objects,
            lib_sizes,
            program_libs,
        }
    }

    /// The unique app object of program `j` (64 bytes of index-derived
    /// text defining `_start`).
    #[must_use]
    pub fn app_object(&self, j: usize) -> ObjectFile {
        let mut bytes = vec![0u8; 64];
        bytes[..8].copy_from_slice(&(j as u64).to_le_bytes());
        for (off, b) in bytes.iter_mut().enumerate().skip(8) {
            *b = ((j * 257 + off * 17) % 249) as u8;
        }
        let mut o = ObjectFile::new(&format!("p{j}.o"));
        let t = o.add_section(Section::with_bytes(".text", SectionKind::Text, bytes, 8));
        o.define(Symbol::defined("_start", t, 0))
            .expect("entry symbol");
        o
    }

    /// Binds the whole catalog into `server`'s namespace: library
    /// objects, constraint-placed library blueprints (1 MiB apart, so
    /// every library image is position-fixed and shareable), app
    /// objects, and program blueprints.
    pub fn bind(&self, server: &Omos) {
        for (i, obj) in self.lib_objects.iter().enumerate() {
            server.namespace.bind_object(&lib_obj_path(i), obj.clone());
            server
                .namespace
                .bind_blueprint(
                    &lib_path(i),
                    &format!(
                        "(constraint-list \"T\" {:#x} \"D\" {:#x})\n(merge {})",
                        0x0200_0000u64 + (i as u64) * 0x0010_0000,
                        0x4200_0000u64 + (i as u64) * 0x0010_0000,
                        lib_obj_path(i),
                    ),
                )
                .expect("library blueprint parses");
        }
        for (j, libs) in self.program_libs.iter().enumerate() {
            server
                .namespace
                .bind_object(&format!("/cat/obj/p{j}.o"), self.app_object(j));
            let merged: String = libs.iter().map(|&i| format!(" {}", lib_path(i))).collect();
            server
                .namespace
                .bind_blueprint(
                    &program_path(j),
                    &format!("(merge /cat/obj/p{j}.o{merged})"),
                )
                .expect("program blueprint parses");
        }
    }

    /// Total text bytes across the library pool.
    #[must_use]
    pub fn pool_bytes(&self) -> u64 {
        self.lib_sizes.iter().map(|&s| s as u64).sum()
    }
}

/// One image-cache configuration on the hit-rate/byte-budget curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePlan {
    /// No byte budget — the reference run (and the budget yardstick).
    Unbounded,
    /// Budgeted, generation-order (insertion/touch queue) eviction.
    GenerationOrder {
        /// Tier-1 byte budget.
        budget: u64,
    },
    /// Budgeted, cost-aware (GDSF: size x rebuild cost x frequency)
    /// eviction, no second tier.
    CostAware {
        /// Tier-1 byte budget.
        budget: u64,
    },
    /// Cost-aware eviction with the tier-2 spill store behind it.
    CostAwareTiered {
        /// Tier-1 byte budget.
        budget: u64,
        /// Tier-2 (sealed-bytes) budget.
        spill_budget: u64,
    },
}

impl CachePlan {
    /// Plan name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CachePlan::Unbounded => "unbounded",
            CachePlan::GenerationOrder { .. } => "generation-order",
            CachePlan::CostAware { .. } => "cost-aware",
            CachePlan::CostAwareTiered { .. } => "cost-aware+tiered",
        }
    }

    /// Tier-1 budget (`u64::MAX` for the unbounded reference).
    #[must_use]
    pub fn budget(&self) -> u64 {
        match *self {
            CachePlan::Unbounded => u64::MAX,
            CachePlan::GenerationOrder { budget }
            | CachePlan::CostAware { budget }
            | CachePlan::CostAwareTiered { budget, .. } => budget,
        }
    }

    /// Builds the image cache this plan describes.
    #[must_use]
    pub fn build(&self, cost: CostModel) -> ImageCache {
        const SHARDS: usize = 8;
        match *self {
            CachePlan::Unbounded => ImageCache::with_shards(u64::MAX, SHARDS),
            CachePlan::GenerationOrder { budget } => {
                ImageCache::with_policy(budget, SHARDS, EvictionPolicy::GenerationOrder)
            }
            CachePlan::CostAware { budget } => {
                ImageCache::with_policy(budget, SHARDS, EvictionPolicy::CostAware)
            }
            CachePlan::CostAwareTiered {
                budget,
                spill_budget,
            } => ImageCache::with_policy(budget, SHARDS, EvictionPolicy::CostAware)
                .with_spill(Arc::new(SpillTier::new(spill_budget, cost))),
        }
    }
}

/// One Zipfian replay's knobs.
#[derive(Debug, Clone, Copy)]
pub struct DriveCfg {
    /// Requests to issue.
    pub requests: usize,
    /// Driver seed (independent of the catalog seed).
    pub seed: u64,
    /// Zipf exponent of the program request distribution.
    pub s: f64,
    /// Every `churn_every`-th request first re-binds one
    /// popularity-sampled library object with *identical bytes*: reply
    /// rows over that library go stale (they re-probe the image cache)
    /// but every image key is unchanged, so a retained image is a hit.
    /// `0` disables churn.
    pub churn_every: usize,
}

/// Counters from one replay. All simulation-domain, deterministic for
/// a given seed under a single-threaded drive.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriveResult {
    /// Requests issued.
    pub requests: u64,
    /// Requests answered from the reply cache.
    pub reply_hits: u64,
    /// Distinct programs touched.
    pub distinct_programs: u64,
    /// Idempotent library rebinds injected.
    pub rebinds: u64,
    /// Image-cache probes (tier-1 hits + misses).
    pub probes: u64,
    /// Probes answered by tier 1.
    pub tier1_hits: u64,
    /// Misses answered by a verified tier-2 fault-in.
    pub fault_ins: u64,
    /// Misses that paid a relink (miss and no fault-in).
    pub relinks: u64,
    /// Images spilled to tier 2.
    pub spills: u64,
    /// Fault-in attempts dropped by verification.
    pub verify_drops: u64,
    /// Tier-1 budget evictions.
    pub evictions: u64,
    /// Total billed server work over the replay.
    pub server_ns: u64,
    /// Live tier-1 bytes when the replay ended.
    pub live_bytes: u64,
    /// Requests that rebuilt a rebind-invalidated reply (a stale reply
    /// was dropped on probe during the request).
    pub recoveries: u64,
    /// Billed cost of those recoveries as actually served (the
    /// incremental relink path when it engaged).
    pub recovery_incremental_ns: u64,
    /// What the same recoveries would have billed as cold full relinks:
    /// the served cost plus the link work the incremental path's image
    /// reuses provably avoided.
    pub recovery_full_ns: u64,
}

impl DriveResult {
    /// Fraction of image probes answered without a relink.
    #[must_use]
    pub fn avoidance(&self) -> f64 {
        if self.probes == 0 {
            return 0.0;
        }
        (self.tier1_hits + self.fault_ins) as f64 / self.probes as f64
    }
}

/// Replays `cfg.requests` Zipfian-sampled instantiations against
/// `server` (already bound with `catalog`) and returns the counter
/// deltas. Single-threaded and deterministic per seed.
#[must_use]
pub fn drive(server: &Omos, catalog: &Catalog, cfg: &DriveCfg) -> DriveResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let programs = ZipfSampler::new(catalog.spec.programs, cfg.s);
    let churn = ZipfSampler::new(catalog.spec.libraries, LIB_POPULARITY_S);
    let cache0 = server.images.stats();
    let spill0 = server.images.spill().map(|t| t.stats()).unwrap_or_default();
    let mut seen = vec![false; catalog.spec.programs];
    let mut r = DriveResult::default();

    for i in 0..cfg.requests {
        if cfg.churn_every > 0 && i > 0 && i % cfg.churn_every == 0 {
            let lib = churn.sample(&mut rng);
            server
                .namespace
                .bind_object(&lib_obj_path(lib), catalog.lib_objects[lib].clone());
            r.rebinds += 1;
        }
        let p = programs.sample(&mut rng);
        if !seen[p] {
            seen[p] = true;
            r.distinct_programs += 1;
        }
        let t0 = server.tracer().counters();
        let reply = server
            .instantiate(&program_path(p))
            .expect("catalog programs instantiate");
        let t1 = server.tracer().counters();
        if reply.cache_hit {
            r.reply_hits += 1;
        }
        // A stale-reply drop during the request marks a rebind
        // recovery: the reply existed before churn invalidated it.
        // `relink_avoided_ns` records exactly the link work the
        // incremental path's image reuses skipped, so adding it back
        // reproduces what a cold full relink of the same state bills.
        if t1.reply_stale > t0.reply_stale {
            r.recoveries += 1;
            r.recovery_incremental_ns += reply.server_ns;
            r.recovery_full_ns += reply.server_ns + (t1.relink_avoided_ns - t0.relink_avoided_ns);
        }
        r.server_ns += reply.server_ns;
        r.requests += 1;
    }

    let cache = server.images.stats();
    let spill = server.images.spill().map(|t| t.stats()).unwrap_or_default();
    r.tier1_hits = cache.hits - cache0.hits;
    let misses = cache.misses - cache0.misses;
    r.probes = r.tier1_hits + misses;
    r.fault_ins = spill.fault_ins - spill0.fault_ins;
    r.relinks = misses - r.fault_ins;
    r.spills = spill.spills - spill0.spills;
    r.verify_drops = spill.verify_drops - spill0.verify_drops;
    r.evictions = cache.evictions - cache0.evictions;
    r.live_bytes = server.images.bytes();
    r
}

/// Builds a fresh server over `plan`'s cache, binds the catalog, and
/// replays `cfg`.
#[must_use]
pub fn run_plan(catalog: &Catalog, plan: CachePlan, cfg: &DriveCfg) -> DriveResult {
    let cost = CostModel::hpux();
    let server = Omos::with_image_cache(cost, Transport::SysVMsg, plan.build(cost));
    catalog.bind(&server);
    drive(&server, catalog, cfg)
}

/// One measured point on a hit-rate/byte-budget curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Plan name ([`CachePlan::name`]).
    pub plan: &'static str,
    /// Tier-1 byte budget (`u64::MAX` for the reference).
    pub budget: u64,
    /// Budget as a fraction of the reference run's live bytes
    /// (1.0 for the reference itself).
    pub budget_frac: f64,
    /// The replay's counters.
    pub result: DriveResult,
}

/// One request-skew setting: the reference plus every budgeted plan at
/// every budget fraction.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Zipf exponent of the request stream.
    pub s: f64,
    /// Measured points, reference first.
    pub points: Vec<CurvePoint>,
}

/// The full sweep for one catalog.
#[derive(Debug, Clone)]
pub struct CatalogResult {
    /// The generated catalog's spec.
    pub spec: CatalogSpec,
    /// Library-pool text bytes.
    pub pool_bytes: u64,
    /// Live image bytes after the unbounded reference replay (the
    /// yardstick the budget fractions scale).
    pub reference_bytes: u64,
    /// Requests per replay.
    pub requests: usize,
    /// One curve per request-skew exponent.
    pub curves: Vec<Curve>,
}

/// Budget fractions on every curve, as (numerator, denominator) of the
/// reference bytes — rationals, so budgets are integer-exact.
pub const BUDGET_FRACTIONS: [(u64, u64); 3] = [(1, 8), (1, 4), (1, 2)];

/// Tier-2 budget multiple of the tier-1 budget on tiered points.
pub const SPILL_BUDGET_MULTIPLE: u64 = 4;

/// Runs the full sweep for one catalog: for each `s` in `skews`, an
/// unbounded reference replay sizes the budgets, then every budgeted
/// plan replays the *same seeded request stream* at every fraction of
/// [`BUDGET_FRACTIONS`].
#[must_use]
pub fn run_catalog(spec: CatalogSpec, skews: &[f64], cfg: &DriveCfg) -> CatalogResult {
    let catalog = Catalog::generate(spec);
    let mut curves = Vec::with_capacity(skews.len());
    let mut reference_bytes = 0u64;
    for &s in skews {
        let cfg = DriveCfg { s, ..*cfg };
        let reference = run_plan(&catalog, CachePlan::Unbounded, &cfg);
        let total = reference.live_bytes;
        reference_bytes = reference_bytes.max(total);
        let mut points = vec![CurvePoint {
            plan: CachePlan::Unbounded.name(),
            budget: u64::MAX,
            budget_frac: 1.0,
            result: reference,
        }];
        for &(num, den) in &BUDGET_FRACTIONS {
            let budget = total * num / den;
            for plan in [
                CachePlan::GenerationOrder { budget },
                CachePlan::CostAware { budget },
                CachePlan::CostAwareTiered {
                    budget,
                    spill_budget: budget * SPILL_BUDGET_MULTIPLE,
                },
            ] {
                points.push(CurvePoint {
                    plan: plan.name(),
                    budget,
                    budget_frac: num as f64 / den as f64,
                    result: run_plan(&catalog, plan, &cfg),
                });
            }
        }
        curves.push(Curve { s, points });
    }
    CatalogResult {
        spec,
        pool_bytes: catalog.pool_bytes(),
        reference_bytes,
        requests: cfg.requests,
        curves,
    }
}

/// A replay's counters as report members, in report order.
fn counters(d: &DriveResult) -> [(&'static str, Json); 14] {
    [
        ("probes", d.probes.into()),
        ("tier1_hits", d.tier1_hits.into()),
        ("fault_ins", d.fault_ins.into()),
        ("relinks", d.relinks.into()),
        ("spills", d.spills.into()),
        ("verify_drops", d.verify_drops.into()),
        ("evictions", d.evictions.into()),
        ("reply_hits", d.reply_hits.into()),
        ("rebinds", d.rebinds.into()),
        ("distinct_programs", d.distinct_programs.into()),
        ("server_ns", d.server_ns.into()),
        ("recoveries", d.recoveries.into()),
        ("recovery_incremental_ns", d.recovery_incremental_ns.into()),
        ("recovery_full_ns", d.recovery_full_ns.into()),
    ]
}

/// Renders a sweep as JSON. Every value is either an integer counter
/// or a fixed-precision fraction of integers, so the document is
/// deterministic per seed.
#[must_use]
pub fn to_json(results: &[CatalogResult]) -> String {
    let point = |p: &CurvePoint| {
        let mut members = vec![
            ("plan", p.plan.into()),
            (
                "budget_bytes",
                (p.budget != u64::MAX).then_some(p.budget).into(),
            ),
            ("budget_frac", Json::fixed(p.budget_frac, 3)),
        ];
        members.extend(counters(&p.result));
        members.push(("avoidance", Json::fixed(p.result.avoidance(), 4)));
        Json::obj(members)
    };
    let curve = |c: &Curve| {
        let points = c.points.iter().map(point).collect();
        Json::obj([("s", Json::fixed(c.s, 2)), ("points", Json::Arr(points))])
    };
    let catalog = |r: &CatalogResult| {
        Json::obj([
            ("programs", r.spec.programs.into()),
            ("libraries", r.spec.libraries.into()),
            ("seed", r.spec.seed.into()),
            ("requests", r.requests.into()),
            ("pool_bytes", r.pool_bytes.into()),
            ("reference_bytes", r.reference_bytes.into()),
            ("curves", Json::Arr(r.curves.iter().map(curve).collect())),
        ])
    };
    Json::obj([
        ("bench", "catalog-zipf".into()),
        ("metric", "relink_avoidance".into()),
        ("catalogs", Json::Arr(results.iter().map(catalog).collect())),
    ])
    .render()
}

/// The smoke view of one sweep, the byte-compared golden document:
/// points keyed by `(s, plan, budget_frac)` as strings, with the cache
/// and recovery counters only. The derived avoidance fraction is left
/// out, so the gate compares nothing but deterministic integer counts.
#[must_use]
pub fn to_smoke_json(r: &CatalogResult) -> String {
    const OMIT: [&str; 4] = ["evictions", "reply_hits", "rebinds", "distinct_programs"];
    let point = |c: &Curve, p: &CurvePoint| {
        let mut members = vec![
            ("s", format!("{:.2}", c.s).into()),
            ("plan", p.plan.into()),
            ("budget_frac", format!("{:.3}", p.budget_frac).into()),
        ];
        members.extend(
            counters(&p.result)
                .into_iter()
                .filter(|(k, _)| !OMIT.contains(k)),
        );
        Json::obj(members)
    };
    let points = r
        .curves
        .iter()
        .flat_map(|c| c.points.iter().map(move |p| point(c, p)))
        .collect();
    Json::obj([
        ("bench", "catalog-smoke".into()),
        ("programs", r.spec.programs.into()),
        ("libraries", r.spec.libraries.into()),
        ("seed", r.spec.seed.into()),
        ("requests", r.requests.into()),
        ("reference_bytes", r.reference_bytes.into()),
        ("points", Json::Arr(points)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CatalogSpec {
        CatalogSpec {
            programs: 60,
            libraries: 24,
            libs_per_program: (2, 4),
            seed: 7,
        }
    }

    fn tiny_cfg() -> DriveCfg {
        DriveCfg {
            requests: 300,
            seed: 11,
            s: 1.1,
            churn_every: 8,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Catalog::generate(tiny_spec());
        let b = Catalog::generate(tiny_spec());
        assert_eq!(a.lib_sizes, b.lib_sizes);
        assert_eq!(a.program_libs, b.program_libs);
        assert_eq!(a.lib_objects, b.lib_objects);
        let c = Catalog::generate(CatalogSpec {
            seed: 8,
            ..tiny_spec()
        });
        assert_ne!(
            a.program_libs, c.program_libs,
            "different seeds draw different catalogs"
        );
    }

    #[test]
    fn zipf_sampler_skews_toward_low_ranks() {
        let z = ZipfSampler::new(100, 1.1);
        let mut rng = StdRng::seed_from_u64(3);
        let mut head = 0usize;
        const DRAWS: usize = 4_000;
        for _ in 0..DRAWS {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Zipf(1.1) over 100 ranks puts well over a third of the mass
        // on the top 10; uniform would put 10% there.
        assert!(head > DRAWS / 3, "head draws = {head}");
    }

    #[test]
    fn drive_is_deterministic_and_conserves_probes() {
        let catalog = Catalog::generate(tiny_spec());
        let plan = CachePlan::CostAwareTiered {
            budget: 64 << 10,
            spill_budget: 256 << 10,
        };
        let a = run_plan(&catalog, plan, &tiny_cfg());
        let b = run_plan(&catalog, plan, &tiny_cfg());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same run");
        assert_eq!(a.probes, a.tier1_hits + a.fault_ins + a.relinks);
        assert!(a.rebinds > 0 && a.probes > 0);
        assert_eq!(a.verify_drops, 0, "identical rebinds never corrupt images");
    }

    #[test]
    fn cost_aware_tiered_beats_generation_order_on_the_tiny_catalog() {
        let catalog = Catalog::generate(tiny_spec());
        let cfg = tiny_cfg();
        let reference = run_plan(&catalog, CachePlan::Unbounded, &cfg);
        let budget = reference.live_bytes / 4;
        let base = run_plan(&catalog, CachePlan::GenerationOrder { budget }, &cfg);
        let tiered = run_plan(
            &catalog,
            CachePlan::CostAwareTiered {
                budget,
                spill_budget: budget * SPILL_BUDGET_MULTIPLE,
            },
            &cfg,
        );
        assert!(base.evictions > 0, "budget must actually bind");
        assert!(
            tiered.avoidance() > base.avoidance(),
            "cost-aware+tiered ({:.4}) must beat generation-order ({:.4})",
            tiered.avoidance(),
            base.avoidance()
        );
    }

    #[test]
    fn churn_recoveries_are_counted_and_never_dearer_than_full_relinks() {
        let catalog = Catalog::generate(tiny_spec());
        let r = run_plan(&catalog, CachePlan::Unbounded, &tiny_cfg());
        assert!(r.rebinds > 0, "churn must fire");
        assert!(r.recoveries > 0, "rebinds must invalidate some replies");
        assert!(
            r.recovery_incremental_ns <= r.recovery_full_ns,
            "incremental recovery {} must not exceed the full-relink \
             equivalent {}",
            r.recovery_incremental_ns,
            r.recovery_full_ns
        );
        // Idempotent rebinds leave every image key unchanged, so the
        // incremental path reuses the whole subgraph: the avoided link
        // work is real and the two costs must actually separate.
        assert!(
            r.recovery_incremental_ns < r.recovery_full_ns,
            "identical-bytes churn must avoid link work incrementally"
        );
        // No churn, no recoveries.
        let quiet = run_plan(
            &catalog,
            CachePlan::Unbounded,
            &DriveCfg {
                churn_every: 0,
                ..tiny_cfg()
            },
        );
        assert_eq!(quiet.recoveries, 0);
        assert_eq!(quiet.recovery_incremental_ns, 0);
        assert_eq!(quiet.recovery_full_ns, 0);
    }

    #[test]
    fn json_round_trips_every_point() {
        let r = run_catalog(tiny_spec(), &[1.1], &tiny_cfg());
        let points = &r.curves[0].points;
        let arr = |v: Option<&Json>| v.and_then(Json::as_arr).expect("an array").to_vec();
        let smoke = omos_core::json::parse(&to_smoke_json(&r)).expect("valid JSON");
        let smoke_rows = arr(smoke.get("points"));
        let full = omos_core::json::parse(&to_json(std::slice::from_ref(&r))).expect("valid JSON");
        let catalog = &arr(full.get("catalogs"))[0];
        let full_rows = arr(arr(catalog.get("curves"))[0].get("points"));
        assert_eq!(smoke_rows.len(), points.len());
        assert_eq!(full_rows.len(), points.len());
        assert_eq!(full_rows[0].get("budget_bytes"), Some(&Json::Null));
        for ((smoke, full), p) in smoke_rows.iter().zip(&full_rows).zip(points) {
            assert_eq!(smoke.get("s"), Some(&"1.10".into()));
            assert_eq!(smoke.get("plan"), Some(&p.plan.into()));
            assert_eq!(smoke.get("relinks"), Some(&p.result.relinks.into()));
            assert!(smoke.get("avoidance").is_none(), "no derived floats");
            assert_eq!(full.get("probes"), Some(&p.result.probes.into()));
            assert_eq!(
                full.get("avoidance"),
                Some(&Json::fixed(p.result.avoidance(), 4))
            );
        }
    }
}
