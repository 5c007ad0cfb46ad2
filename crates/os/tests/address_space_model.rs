//! Model-based test of [`AddressSpace`]: random sequences of maps,
//! reads and writes run against the address space and against a plain
//! per-page table (one entry per mapped page, each holding its own
//! frame), and every observable result must agree — return values,
//! faults and errors, bytes read, `mapped_pages`, `cow_faults`, the
//! full `visit_pages` sequence, and `MemoryAccounting` over several
//! spaces that share the same frames.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use omos_isa::{Memory, VmFault};
use omos_link::{LinkedImage, Segment};
use omos_obj::SectionKind;
use omos_os::memory::{Frame, FrameSegment, MapWork};
use omos_os::{AddressSpace, ImageFrames, MemoryAccounting, PAGE_SIZE};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const PAGE: usize = PAGE_SIZE as usize;

// --- The oracle: one entry per page ----------------------------------------

enum Page {
    Shared(Arc<Frame>),
    Private(Box<[u8; PAGE]>),
    Zero,
}

struct PageEntry {
    page: Page,
    writable: bool,
}

/// The page table the region-based space must behave exactly like.
#[derive(Default)]
struct Model {
    pages: BTreeMap<u32, PageEntry>,
    cow_faults: u64,
}

impl Model {
    fn mapped_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    fn map_segment(
        &mut self,
        vaddr: u32,
        frames: &[Arc<Frame>],
        writable: bool,
    ) -> Result<MapWork, String> {
        if !vaddr.is_multiple_of(PAGE_SIZE) {
            return Err(format!("segment base {vaddr:#x} not page aligned"));
        }
        let first = vaddr / PAGE_SIZE;
        for i in 0..frames.len() as u32 {
            if self.pages.contains_key(&(first + i)) {
                return Err(format!(
                    "mapping collision at {:#x}",
                    (first + i) * PAGE_SIZE
                ));
            }
        }
        for (i, f) in frames.iter().enumerate() {
            self.pages.insert(
                first + i as u32,
                PageEntry {
                    page: Page::Shared(Arc::clone(f)),
                    writable,
                },
            );
        }
        Ok(MapWork {
            regions: 1,
            pages: frames.len() as u64,
        })
    }

    fn map(&mut self, image: &ImageFrames) -> Result<MapWork, String> {
        let mut work = MapWork::default();
        for seg in &image.segments {
            work.absorb(self.map_segment(seg.vaddr, &seg.frames, seg.writable)?);
        }
        for &(vaddr, pages) in &image.private_zero {
            work.absorb(self.map_private_zero(vaddr, pages)?);
        }
        Ok(work)
    }

    fn map_private_zero(&mut self, vaddr: u32, pages: u32) -> Result<MapWork, String> {
        if !vaddr.is_multiple_of(PAGE_SIZE) {
            return Err(format!("base {vaddr:#x} not page aligned"));
        }
        let first = vaddr / PAGE_SIZE;
        for i in 0..pages {
            if self.pages.contains_key(&(first + i)) {
                return Err(format!(
                    "mapping collision at {:#x}",
                    (first + i) * PAGE_SIZE
                ));
            }
        }
        for i in 0..pages {
            self.pages.insert(
                first + i,
                PageEntry {
                    page: Page::Zero,
                    writable: true,
                },
            );
        }
        Ok(MapWork {
            regions: 1,
            pages: u64::from(pages),
        })
    }

    fn visit_pages(&self, mut f: impl FnMut(u32, Option<*const Frame>)) {
        for (&pno, e) in &self.pages {
            match &e.page {
                Page::Shared(a) => f(pno, Some(Arc::as_ptr(a))),
                Page::Private(_) | Page::Zero => f(pno, None),
            }
        }
    }

    fn store(&mut self, addr: u32, buf: &[u8], protect: bool) -> Result<(), VmFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u32;
            let pno = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let fault = VmFault::MemFault {
                addr: a,
                write: true,
            };
            let entry = self.pages.get_mut(&pno).ok_or(fault.clone())?;
            if protect && !entry.writable {
                return Err(fault);
            }
            match &entry.page {
                Page::Shared(f) => {
                    let mut page = Box::new([0; PAGE]);
                    page[..f.bytes().len()].copy_from_slice(f.bytes());
                    entry.page = Page::Private(page);
                    self.cow_faults += 1;
                }
                Page::Zero => entry.page = Page::Private(Box::new([0; PAGE])),
                Page::Private(_) => {}
            }
            let n = (buf.len() - done).min(PAGE - off);
            if let Page::Private(dst) = &mut entry.page {
                dst[off..off + n].copy_from_slice(&buf[done..done + n]);
            }
            done += n;
        }
        Ok(())
    }

    fn read(&self, addr: u32, buf: &mut [u8]) -> Result<(), VmFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u32;
            let off = (a % PAGE_SIZE) as usize;
            let entry = self.pages.get(&(a / PAGE_SIZE)).ok_or(VmFault::MemFault {
                addr: a,
                write: false,
            })?;
            let n = (buf.len() - done).min(PAGE - off);
            let dst = &mut buf[done..done + n];
            match &entry.page {
                Page::Shared(f) => {
                    let have = f.bytes().get(off..).unwrap_or_default();
                    let k = have.len().min(n);
                    dst[..k].copy_from_slice(&have[..k]);
                    dst[k..].fill(0);
                }
                Page::Private(p) => dst.copy_from_slice(&p[off..off + n]),
                Page::Zero => dst.fill(0),
            }
            done += n;
        }
        Ok(())
    }
}

/// `MemoryAccounting::measure`'s rule, over model spaces.
fn model_accounting(models: &[Model]) -> MemoryAccounting {
    let mut shared: HashMap<*const Frame, u64> = HashMap::new();
    let mut acc = MemoryAccounting::default();
    for m in models {
        m.visit_pages(|_, frame| {
            acc.mapped_pages += 1;
            match frame {
                Some(p) => *shared.entry(p).or_insert(0) += 1,
                None => acc.private_pages += 1,
            }
        });
    }
    acc.resident_frames = shared.len() as u64 + acc.private_pages;
    acc
}

// --- Shared images ------------------------------------------------------------

fn seg(kind: SectionKind, vaddr: u32, len: usize, fill: u8, zero: u64) -> Segment {
    let bytes: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
    Segment {
        name: kind.default_name().into(),
        kind,
        vaddr,
        bytes: bytes.into(),
        zero,
    }
}

fn framed(name: &str, segments: Vec<Segment>, private_zero: Vec<(u32, u32)>) -> ImageFrames {
    let mut f = ImageFrames::from_image(&LinkedImage {
        name: name.into(),
        segments,
        symbols: HashMap::new(),
        entry: Some(0),
    });
    f.private_zero = private_zero;
    f
}

const P: u32 = PAGE_SIZE;

/// Three images over pages 0..24. `b` and `c` collide with `a` and each
/// other, so mapping several of them into one space fails part way.
/// Between them they have partial tail pages, a page two segments share,
/// BSS, private zero runs, and (in `a`) a zero-length run that lies
/// inside the image's own text.
fn images() -> Vec<ImageFrames> {
    vec![
        framed(
            "a",
            vec![
                seg(SectionKind::Text, P, 2 * PAGE + 100, 1, 0),
                seg(SectionKind::RoData, 3 * P + 100, 40, 90, 0),
                seg(SectionKind::Data, 6 * P, 100, 7, 5000),
            ],
            vec![(9 * P, 2), (2 * P, 0)],
        ),
        framed(
            "b",
            vec![
                seg(SectionKind::Text, 10 * P, PAGE + 3, 30, 0),
                seg(SectionKind::Data, 12 * P + 8, 200, 60, 0),
            ],
            vec![(13 * P, 1)],
        ),
        framed(
            "c",
            vec![
                seg(SectionKind::Text, 3 * P, 10, 120, 0),
                seg(SectionKind::Data, 11 * P, PAGE, 150, 10),
            ],
            vec![(20 * P, 3), (0, 1)],
        ),
    ]
}

// --- Operations ----------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Map {
        image: usize,
    },
    /// One of an image's segments, moved to `vaddr`.
    MapSegment {
        image: usize,
        seg: usize,
        vaddr: u32,
        writable: bool,
    },
    MapZero {
        vaddr: u32,
        pages: u32,
    },
    Read {
        addr: u32,
        len: usize,
    },
    Write {
        addr: u32,
        len: usize,
        fill: u8,
        force: bool,
    },
}

/// An address in pages 0..24, often near a page boundary.
fn addr(rng: &mut TestRng) -> u32 {
    let page = rng.below(24) as u32 * PAGE_SIZE;
    match rng.below(3) {
        0 => page,
        1 => page + PAGE_SIZE - 1 - rng.below(8) as u32,
        _ => page + rng.below(u64::from(PAGE_SIZE)) as u32,
    }
}

/// A base address: page aligned, except now and then.
fn base(rng: &mut TestRng) -> u32 {
    let page = rng.below(24) as u32 * PAGE_SIZE;
    if rng.below(8) == 0 {
        page + 4
    } else {
        page
    }
}

fn len(rng: &mut TestRng) -> usize {
    match rng.below(3) {
        0 => 1 + rng.below(8) as usize,
        1 => 1 + rng.below(64) as usize,
        _ => 1 + rng.below(2 * PAGE as u64 + 16) as usize,
    }
}

fn op(rng: &mut TestRng, segs: &[usize]) -> Op {
    match rng.below(10) {
        0 => Op::Map {
            image: rng.below(segs.len() as u64) as usize,
        },
        1 | 2 => {
            let image = rng.below(segs.len() as u64) as usize;
            Op::MapSegment {
                image,
                seg: rng.below(segs[image] as u64) as usize,
                vaddr: base(rng),
                writable: rng.below(2) == 0,
            }
        }
        3 => Op::MapZero {
            vaddr: base(rng),
            pages: rng.below(4) as u32,
        },
        4..=6 => Op::Read {
            addr: addr(rng),
            len: len(rng),
        },
        _ => Op::Write {
            addr: addr(rng),
            len: len(rng),
            fill: rng.below(256) as u8,
            force: rng.below(3) == 0,
        },
    }
}

/// Number of spaces each run drives side by side.
const SPACES: usize = 3;

fn arb_ops() -> impl Strategy<Value = Vec<(usize, Op)>> {
    proptest::strategy::from_fn(|rng: &mut TestRng| {
        let segs: Vec<usize> = images().iter().map(|i| i.segments.len()).collect();
        (0..10 + rng.below(50))
            .map(|_| (rng.below(SPACES as u64) as usize, op(rng, &segs)))
            .collect()
    })
}

// --- The check -------------------------------------------------------------------

fn pages_of(visit: impl FnOnce(&mut dyn FnMut(u32, Option<*const Frame>))) -> Vec<(u32, usize)> {
    let mut out = Vec::new();
    visit(&mut |pno, f| out.push((pno, f.map_or(0, |p| p as usize))));
    out
}

/// Applies `op` to both sides and returns a description of the first
/// disagreement.
fn step(
    images: &[ImageFrames],
    space: &mut AddressSpace,
    model: &mut Model,
    op: &Op,
) -> Result<(), String> {
    let same = |what: &str, got: String, want: String| {
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: got {got}, want {want}"))
        }
    };
    match op {
        Op::Map { image } => same(
            "map",
            format!("{:?}", space.map(&images[*image])),
            format!("{:?}", model.map(&images[*image])),
        )?,
        Op::MapSegment {
            image,
            seg,
            vaddr,
            writable,
        } => {
            let seg = FrameSegment {
                vaddr: *vaddr,
                writable: *writable,
                ..images[*image].segments[*seg].clone()
            };
            same(
                "map_segment",
                format!("{:?}", space.map_segment(&seg)),
                format!(
                    "{:?}",
                    model.map_segment(seg.vaddr, &seg.frames, seg.writable)
                ),
            )?;
        }
        Op::MapZero { vaddr, pages } => same(
            "map_private_zero",
            format!("{:?}", space.map_private_zero(*vaddr, *pages)),
            format!("{:?}", model.map_private_zero(*vaddr, *pages)),
        )?,
        Op::Read { addr, len } => {
            let mut got = vec![0xa5; *len];
            let mut want = vec![0xa5; *len];
            same(
                "read",
                format!("{:?}", space.read(*addr, &mut got)),
                format!("{:?}", model.read(*addr, &mut want)),
            )?;
            if got != want {
                return Err(format!("read {addr:#x}+{len}: bytes differ"));
            }
        }
        Op::Write {
            addr,
            len,
            fill,
            force,
        } => {
            let buf: Vec<u8> = (0..*len).map(|i| fill.wrapping_add(i as u8)).collect();
            let got = if *force {
                space.force_write(*addr, &buf)
            } else {
                space.write(*addr, &buf)
            };
            same(
                "write",
                format!("{got:?}"),
                format!("{:?}", model.store(*addr, &buf, !force)),
            )?;
        }
    }
    same(
        "mapped_pages",
        space.mapped_pages().to_string(),
        model.mapped_pages().to_string(),
    )?;
    same(
        "cow_faults",
        space.cow_faults.to_string(),
        model.cow_faults.to_string(),
    )?;
    let got = pages_of(|f| space.visit_pages(f));
    let want = pages_of(|f| model.visit_pages(f));
    if got != want {
        return Err(format!("visit_pages: got {got:?}, want {want:?}"));
    }
    Ok(())
}

/// Runs `ops` and checks every step, then accounting over all spaces
/// and every byte of pages 0..24 in each.
fn check(ops: &[(usize, Op)]) -> Result<(), String> {
    let images = images();
    let mut spaces: Vec<AddressSpace> = (0..SPACES).map(|_| AddressSpace::new()).collect();
    let mut models: Vec<Model> = (0..SPACES).map(|_| Model::default()).collect();
    for (i, (s, op)) in ops.iter().enumerate() {
        step(&images, &mut spaces[*s], &mut models[*s], op)
            .map_err(|e| format!("op {i} {op:?} on space {s}: {e}"))?;
    }
    let refs: Vec<&AddressSpace> = spaces.iter().collect();
    let got = MemoryAccounting::measure(&refs);
    let want = model_accounting(&models);
    if got != want {
        return Err(format!("accounting: got {got:?}, want {want:?}"));
    }
    for (s, (space, model)) in spaces.iter_mut().zip(&models).enumerate() {
        for pno in 0..24 {
            let mut got = vec![0xa5; PAGE];
            let mut want = vec![0xa5; PAGE];
            let r = (
                space.read(pno * P, &mut got),
                model.read(pno * P, &mut want),
            );
            if r.0 != r.1 || got != want {
                return Err(format!("space {s} page {pno} differs at the end"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn regions_behave_like_a_page_table(ops in arb_ops()) {
        if let Err(e) = check(&ops) {
            prop_assert!(false, "{}", e);
        }
    }
}

#[test]
fn an_empty_mapping_inside_a_region_is_accepted() {
    let images = images();
    let ops = [
        (0, Op::Map { image: 0 }),
        // Inside `a`'s text region, and inside its zero run.
        (0, Op::MapZero { vaddr: P, pages: 0 }),
        (
            0,
            Op::MapZero {
                vaddr: 10 * P,
                pages: 0,
            },
        ),
        (
            0,
            Op::MapZero {
                vaddr: 10 * P,
                pages: 1,
            },
        ),
    ];
    check(&ops).unwrap();
    // Image `a` itself carries an empty run inside its own text.
    assert_eq!(
        AddressSpace::new().map(&images[0]),
        Ok(MapWork {
            regions: 4,
            pages: 7
        })
    );
}

#[test]
fn a_store_that_straddles_two_regions() {
    let ops = [
        (0, Op::Map { image: 0 }),
        (1, Op::Map { image: 0 }),
        (
            0,
            Op::MapZero {
                vaddr: 8 * P,
                pages: 1,
            },
        ),
        // Shared writable data page 7 (copy-on-write) into the zero
        // run at page 8 (allocated).
        (
            0,
            Op::Write {
                addr: 8 * P - 3,
                len: 6,
                fill: 9,
                force: false,
            },
        ),
        // Page 10 is written, then unmapped page 11 faults.
        (
            0,
            Op::Write {
                addr: 11 * P - 2,
                len: 4,
                fill: 5,
                force: false,
            },
        ),
        // Forced into read-only text page 3, then unmapped page 4.
        (
            0,
            Op::Write {
                addr: 4 * P - 2,
                len: 4,
                fill: 1,
                force: true,
            },
        ),
        (
            0,
            Op::Read {
                addr: 8 * P - 8,
                len: 16,
            },
        ),
    ];
    check(&ops).unwrap();
}
