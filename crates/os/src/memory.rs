//! Address spaces of mapped regions with page-granular copy-on-write.
//!
//! Shared libraries are, at bottom, a memory story: text pages shared
//! between every client, data pages copy-on-write. [`ImageFrames`] turns a
//! linked image into page frames once (the server's cache of "mappable
//! segments"); [`AddressSpace::map`] installs each segment's frame list
//! into a task as one region, so a map costs an insert and a reference
//! count per segment, not per page. A shared frame is a window onto the
//! image's own segment bytes, so a cached image holds its bytes once;
//! only a copy-on-write fault makes a full private page, which shadows
//! the region beneath it, and a private zero region (stack, audit
//! counters) holds no bytes until a page of it is written.
//! [`MemoryAccounting`] then measures, page by page, exactly how much
//! physical memory a population of processes uses — the measurement
//! behind the paper's dispatch-table-vs-savings discussion (\[11\]).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use omos_isa::{Memory, VmFault};
use omos_link::LinkedImage;

/// Page size in bytes (HP730: 4 KB).
pub const PAGE_SIZE: u32 = 4096;

/// The contents of one whole page.
type PageBytes = [u8; PAGE_SIZE as usize];

/// One shared physical page frame: a window onto an image's initialized
/// bytes. The window covers the start of the page; every byte past it
/// (a segment's partial tail, BSS) reads as zero.
#[derive(Debug)]
pub struct Frame {
    bytes: Arc<[u8]>,
    start: usize,
    len: usize,
}

impl Frame {
    /// An all-zero frame (an empty window).
    #[must_use]
    pub fn zeroed() -> Frame {
        Frame {
            bytes: Arc::from([]),
            start: 0,
            len: 0,
        }
    }

    /// The frame whose page begins with `bytes[start..start + len]`.
    /// The window is clamped to `bytes` and to one page.
    fn window(bytes: Arc<[u8]>, start: usize, len: usize) -> Frame {
        let start = start.min(bytes.len());
        let len = len.min(bytes.len() - start).min(PAGE_SIZE as usize);
        Frame { bytes, start, len }
    }

    /// The initialized bytes at the start of the page; the rest of the
    /// page is zero.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes[self.start..self.start + self.len]
    }

    /// Copies the page bytes at `off..off + buf.len()` into `buf`, zeros
    /// past the window.
    fn read(&self, off: usize, buf: &mut [u8]) {
        let have = self.bytes().get(off..).unwrap_or_default();
        let n = have.len().min(buf.len());
        buf[..n].copy_from_slice(&have[..n]);
        buf[n..].fill(0);
    }

    /// A full private copy of the page.
    fn to_page(&self) -> Box<PageBytes> {
        let mut page = Box::new([0; PAGE_SIZE as usize]);
        page[..self.len].copy_from_slice(self.bytes());
        page
    }
}

/// What backs a region's pages until this space writes them.
#[derive(Debug)]
enum Backing {
    /// A segment's shared frames, one per page: the list the image was
    /// framed into, shared with the image cache and every other space
    /// that maps it. Writes trigger copy-on-write when writable.
    Shared(Arc<[Arc<Frame>]>),
    /// Private zero pages: they read as zero and hold no bytes. The
    /// first write to one allocates it; that is not a copy-on-write
    /// fault (there is nothing to copy).
    Zero,
}

/// A run of pages one mapping installed.
#[derive(Debug)]
struct Region {
    first: u32,
    pages: u32,
    writable: bool,
    backing: Backing,
    /// The pages this space has written, by index in the region, each
    /// shadowing its backing page: a shared page's copy-on-write copy
    /// or a zero page's first allocation. Empty until the first write.
    written: Vec<Option<Box<PageBytes>>>,
}

impl Region {
    /// The written copy of the region's `at`-th page, if any.
    fn written(&self, at: usize) -> Option<&PageBytes> {
        self.written.get(at).and_then(Option::as_deref)
    }
}

/// A task's virtual address space: one region per mapped segment or
/// zero run. Mapping a segment is one insert and one reference count
/// however many pages it spans; frame identity, copy-on-write and
/// accounting stay per page. An exec maps a dozen or so regions, so
/// they live in a vector sorted by first page, where a binary search
/// and a short shift cost less than a tree's nodes.
#[derive(Debug, Default)]
pub struct AddressSpace {
    regions: Vec<Region>,
    /// The index of the region the last access found.
    last: usize,
    /// Copy-on-write faults taken so far.
    pub cow_faults: u64,
}

/// Work performed by a mapping operation, for the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapWork {
    /// Contiguous regions installed.
    pub regions: u64,
    /// Pages installed.
    pub pages: u64,
}

impl MapWork {
    /// Accumulates more work.
    pub fn absorb(&mut self, other: MapWork) {
        self.regions += other.regions;
        self.pages += other.pages;
    }
}

impl AddressSpace {
    /// Creates an empty space.
    #[must_use]
    pub fn new() -> AddressSpace {
        AddressSpace::default()
    }

    /// Number of mapped pages.
    #[must_use]
    pub fn mapped_pages(&self) -> u64 {
        self.regions.iter().map(|r| u64::from(r.pages)).sum()
    }

    /// Maps one segment's shared frames at its page-aligned base.
    ///
    /// Returns an error description if the range collides with an existing
    /// mapping or the base is not page aligned.
    pub fn map_segment(&mut self, seg: &FrameSegment) -> Result<MapWork, String> {
        let backing = Backing::Shared(Arc::clone(&seg.frames));
        self.insert(seg.vaddr, seg.frames.len() as u32, seg.writable, backing)
    }

    /// Maps an entire pre-framed image. This is `vm_map` of every cached
    /// segment — the constant-time load path of the self-contained scheme.
    pub fn map(&mut self, image: &ImageFrames) -> Result<MapWork, String> {
        let mut work = MapWork::default();
        for seg in &image.segments {
            work.absorb(self.map_segment(seg)?);
        }
        for &(vaddr, pages) in &image.private_zero {
            work.absorb(self.map_private_zero(vaddr, pages)?);
        }
        Ok(work)
    }

    /// Maps `pages` fresh private zero pages at `vaddr` (stack, heap).
    /// They read as zero and take memory only when first written.
    pub fn map_private_zero(&mut self, vaddr: u32, pages: u32) -> Result<MapWork, String> {
        self.insert(vaddr, pages, true, Backing::Zero)
    }

    /// Installs `pages` pages at `vaddr` as one region. An empty range
    /// installs nothing and so collides with nothing.
    fn insert(
        &mut self,
        vaddr: u32,
        pages: u32,
        writable: bool,
        backing: Backing,
    ) -> Result<MapWork, String> {
        if !vaddr.is_multiple_of(PAGE_SIZE) {
            let what = match backing {
                Backing::Shared(_) => "segment base",
                Backing::Zero => "base",
            };
            return Err(format!("{what} {vaddr:#x} not page aligned"));
        }
        let first = vaddr / PAGE_SIZE;
        if pages > 0 {
            // The first mapped page of the range: `first` itself, or the
            // first region starting inside the range.
            let at = self.regions.partition_point(|r| r.first < first);
            let before = at.checked_sub(1).map(|i| &self.regions[i]);
            let taken = match (before, self.regions.get(at)) {
                (Some(r), _) if r.first + r.pages > first => Some(first),
                (_, Some(r)) if r.first - first < pages => Some(r.first),
                _ => None,
            };
            if let Some(pno) = taken {
                return Err(format!("mapping collision at {:#x}", pno * PAGE_SIZE));
            }
            let region = Region {
                first,
                pages,
                writable,
                backing,
                written: Vec::new(),
            };
            self.regions.insert(at, region);
        }
        Ok(MapWork {
            regions: 1,
            pages: u64::from(pages),
        })
    }

    /// The index of the region holding page `pno`. Accesses tend to stay
    /// in one region for a while (a run of instruction fetches, a burst
    /// of stack traffic), so the last region found is tried first.
    fn find(&mut self, pno: u32) -> Option<usize> {
        let holds = |r: &Region| pno.wrapping_sub(r.first) < r.pages;
        if self.regions.get(self.last).is_some_and(holds) {
            return Some(self.last);
        }
        let i = self
            .regions
            .partition_point(|r| r.first <= pno)
            .checked_sub(1)?;
        self.last = i;
        holds(&self.regions[i]).then_some(i)
    }

    /// Visits each mapped page's identity for accounting, in page order:
    /// shared pages yield their frame pointer, private pages (written or
    /// not) yield `None`.
    pub fn visit_pages(&self, mut f: impl FnMut(u32, Option<*const Frame>)) {
        for r in &self.regions {
            for (at, pno) in (r.first..r.first + r.pages).enumerate() {
                let frame = match &r.backing {
                    Backing::Shared(frames) if r.written(at).is_none() => {
                        Some(Arc::as_ptr(&frames[at]))
                    }
                    Backing::Shared(_) | Backing::Zero => None,
                };
                f(pno, frame);
            }
        }
    }

    /// Writes bytes ignoring page protection — the dynamic loader's
    /// privilege when it patches relocation sites in text. Still
    /// copy-on-write: patching a shared page privatizes it (the sharing
    /// loss that motivates PIC).
    pub fn force_write(&mut self, addr: u32, buf: &[u8]) -> Result<(), VmFault> {
        self.store(addr, buf, false)
    }

    /// Stores `buf` at `addr`, page by page. The first store to a shared
    /// page privatizes it (copy-on-write); the first store to an
    /// unwritten zero page allocates it. With `protect`, a read-only page
    /// faults instead.
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
            let i = self.find(pno).ok_or(fault.clone())?;
            let r = &mut self.regions[i];
            if protect && !r.writable {
                return Err(fault);
            }
            let at = (pno - r.first) as usize;
            if r.written.is_empty() {
                r.written.resize_with(r.pages as usize, || None);
            }
            let page = r.written[at].get_or_insert_with(|| match &r.backing {
                Backing::Shared(frames) => {
                    self.cow_faults += 1;
                    frames[at].to_page()
                }
                Backing::Zero => Box::new([0; PAGE_SIZE as usize]),
            });
            let n = (buf.len() - done).min(PAGE_SIZE as usize - off);
            page[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
        }
        Ok(())
    }
}

impl Memory for AddressSpace {
    fn read(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), VmFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u32;
            let pno = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let n = (buf.len() - done).min(PAGE_SIZE as usize - off);
            let dst = &mut buf[done..done + n];
            let i = self.find(pno).ok_or(VmFault::MemFault {
                addr: a,
                write: false,
            })?;
            let r = &self.regions[i];
            let at = (pno - r.first) as usize;
            match (r.written(at), &r.backing) {
                (Some(page), _) => dst.copy_from_slice(&page[off..off + n]),
                (None, Backing::Shared(frames)) => frames[at].read(off, dst),
                (None, Backing::Zero) => dst.fill(0),
            }
            done += n;
        }
        Ok(())
    }

    fn write(&mut self, addr: u32, buf: &[u8]) -> Result<(), VmFault> {
        self.store(addr, buf, true)
    }
}

/// One page-framed segment of an image.
#[derive(Debug, Clone)]
pub struct FrameSegment {
    /// Page-aligned base address.
    pub vaddr: u32,
    /// The frames, one per page (windows onto the image's bytes; a
    /// partial tail reads as zero). Built once when the image is framed:
    /// every space that maps the segment shares this list.
    pub frames: Arc<[Arc<Frame>]>,
    /// Mapped writable (data/BSS) or read-only (text/rodata).
    pub writable: bool,
    /// Eligible for cross-process sharing accounting.
    pub shareable: bool,
}

/// A linked image converted to page frames — what the OMOS cache stores
/// and what `vm_map` installs.
#[derive(Debug, Clone)]
pub struct ImageFrames {
    /// Image name.
    pub name: String,
    /// Page-framed segments, by ascending address.
    pub segments: Vec<FrameSegment>,
    /// TLS-like `(vaddr, pages)` runs mapped as fresh private zero pages
    /// per process: the audit-counter pages the image's call-audit stubs
    /// increment. Never backed by shared frames — each process counts
    /// its own calls.
    pub private_zero: Vec<(u32, u32)>,
    /// Program entry point, copied from the image.
    pub entry: Option<u32>,
}

/// One segment's initialized bytes on one page: `len` bytes of `bytes`
/// from `src`, landing at page offset `at`.
struct Part<'a> {
    bytes: &'a Arc<[u8]>,
    src: usize,
    at: usize,
    len: usize,
}

/// What one page of an image is built from.
#[derive(Default)]
struct PageBuild<'a> {
    parts: Vec<Part<'a>>,
    writable: bool,
}

impl PageBuild<'_> {
    /// The page's frame. Bytes from one segment that start the page are a
    /// window onto that segment's buffer; a page whose bytes start past
    /// its first byte, or that two segments share, gets its own buffer
    /// holding just those bytes.
    fn frame(&self) -> Frame {
        match &self.parts[..] {
            [] => Frame::zeroed(),
            [p] if p.at == 0 => Frame::window(Arc::clone(p.bytes), p.src, p.len),
            parts => {
                let end = parts.iter().map(|p| p.at + p.len).max().unwrap_or(0);
                let mut own = vec![0; end];
                for p in parts {
                    own[p.at..p.at + p.len].copy_from_slice(&p.bytes[p.src..p.src + p.len]);
                }
                Frame::window(own.into(), 0, end)
            }
        }
    }
}

impl ImageFrames {
    /// Frames an image. Segments that share a page (e.g. BSS starting on
    /// the data segment's last page) are merged; a page is writable if
    /// any contributor is. Frames point into the image's segment buffers,
    /// so the bytes are not copied.
    #[must_use]
    pub fn from_image(img: &LinkedImage) -> ImageFrames {
        let page = u64::from(PAGE_SIZE);
        let mut pages: BTreeMap<u32, PageBuild<'_>> = BTreeMap::new();
        for seg in &img.segments {
            let writable = !seg.kind.is_shareable();
            let total = seg.size();
            let mut covered = 0u64;
            while covered < total {
                let a = u64::from(seg.vaddr) + covered;
                let at = (a % page) as usize;
                let n = (page - at as u64).min(total - covered) as usize;
                let b = pages.entry((a / page) as u32).or_default();
                b.writable |= writable;
                // Initialized bytes only: the zero tail needs no part.
                let src = covered as usize;
                let len = seg.bytes.len().saturating_sub(src).min(n);
                if len > 0 {
                    b.parts.push(Part {
                        bytes: &seg.bytes,
                        src,
                        at,
                        len,
                    });
                }
                covered += n as u64;
            }
        }
        // Audit-counter pages: scanning the text for call-audit stubs
        // (rather than plumbing policy metadata through every caller)
        // recovers which addresses the image will increment; pages not
        // covered by any segment become per-process private zero runs.
        let mut counter_pages: Vec<u32> = omos_link::scan_audit_stubs(img)
            .iter()
            .map(|site| site.counter_addr / PAGE_SIZE)
            .filter(|pno| !pages.contains_key(pno))
            .collect();
        counter_pages.sort_unstable();
        counter_pages.dedup();
        let private_zero = counter_pages
            .chunk_by(|p, q| p + 1 == *q)
            .map(|run| (run[0] * PAGE_SIZE, run.len() as u32))
            .collect();

        // Shareability: a page is shareable iff it is not writable.
        // Build contiguous runs with uniform attributes.
        let pages: Vec<(u32, PageBuild<'_>)> = pages.into_iter().collect();
        let segments = pages
            .chunk_by(|(p, a), (q, b)| p + 1 == *q && a.writable == b.writable)
            .map(|run| FrameSegment {
                vaddr: run[0].0 * PAGE_SIZE,
                frames: run.iter().map(|(_, b)| Arc::new(b.frame())).collect(),
                writable: run[0].1.writable,
                shareable: !run[0].1.writable,
            })
            .collect();
        ImageFrames {
            name: img.name.clone(),
            segments,
            private_zero,
            entry: img.entry,
        }
    }

    /// Total pages across all segments.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.segments.iter().map(|s| s.frames.len() as u64).sum()
    }
}

/// Physical-memory accounting across a set of address spaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryAccounting {
    /// Sum of every space's mapped pages (what the processes *think*
    /// they have).
    pub mapped_pages: u64,
    /// Distinct physical frames actually backing them.
    pub resident_frames: u64,
    /// Pages privatized by copy-on-write.
    pub private_pages: u64,
}

impl MemoryAccounting {
    /// Measures a population of address spaces.
    #[must_use]
    pub fn measure(spaces: &[&AddressSpace]) -> MemoryAccounting {
        let mut shared: HashMap<*const Frame, u64> = HashMap::new();
        let mut acc = MemoryAccounting::default();
        for s in spaces {
            s.visit_pages(|_, frame| {
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

    /// Pages saved by sharing.
    #[must_use]
    pub fn pages_saved(&self) -> u64 {
        self.mapped_pages - self.resident_frames
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use omos_link::Segment;
    use omos_obj::SectionKind;

    fn image(segs: Vec<Segment>) -> LinkedImage {
        LinkedImage {
            name: "t".into(),
            segments: segs,
            symbols: HashMap::new(),
            entry: Some(0x1000),
        }
    }

    fn seg(kind: SectionKind, vaddr: u32, bytes: Vec<u8>, zero: u64) -> Segment {
        Segment {
            name: kind.default_name().into(),
            kind,
            vaddr,
            bytes: bytes.into(),
            zero,
        }
    }

    #[test]
    fn framing_windows_the_segment_bytes() {
        let img = image(vec![seg(SectionKind::Text, 0x1000, vec![0xaa; 100], 0)]);
        let f = ImageFrames::from_image(&img);
        assert_eq!(f.total_pages(), 1);
        let frame = &f.segments[0].frames[0];
        // The frame holds the 100 initialized bytes, not a padded page,
        // and they are the segment's own buffer.
        assert_eq!(frame.bytes(), &[0xaa; 100][..]);
        assert_eq!(frame.bytes().as_ptr(), img.segments[0].bytes.as_ptr());
        assert!(!f.segments[0].writable);
        assert!(f.segments[0].shareable);
    }

    #[test]
    fn reads_past_the_window_are_zero() {
        let img = image(vec![seg(SectionKind::Text, 0x1000, vec![0xaa; 100], 0)]);
        let frames = ImageFrames::from_image(&img);
        let mut a = AddressSpace::new();
        a.map(&frames).unwrap();
        // Straddling the window's end, then wholly past it.
        let mut buf = [0xffu8; 8];
        a.read(0x1000 + 96, &mut buf).unwrap();
        assert_eq!(buf, [0xaa, 0xaa, 0xaa, 0xaa, 0, 0, 0, 0]);
        let mut tail = [0xffu8; 16];
        a.read(0x1000 + PAGE_SIZE - 16, &mut tail).unwrap();
        assert_eq!(tail, [0; 16]);
    }

    #[test]
    fn cow_write_privatizes_a_full_page_and_leaves_the_image_intact() {
        let img = image(vec![seg(SectionKind::Data, 0x4000_0000, vec![2; 100], 0)]);
        let frames = ImageFrames::from_image(&img);
        let shared = Arc::clone(&frames.segments[0].frames[0]);
        let mut a = AddressSpace::new();
        a.map(&frames).unwrap();
        // A store past the window still lands in a whole private page.
        a.write(0x4000_0000 + PAGE_SIZE - 4, &[9, 9, 9, 9]).unwrap();
        assert_eq!(a.cow_faults, 1);
        let mut page = vec![0u8; PAGE_SIZE as usize];
        a.read(0x4000_0000, &mut page).unwrap();
        assert_eq!(&page[..100], &[2; 100][..]);
        assert!(page[100..PAGE_SIZE as usize - 4].iter().all(|&b| b == 0));
        assert_eq!(&page[PAGE_SIZE as usize - 4..], &[9; 4][..]);
        let mut pages = 0;
        a.visit_pages(|_, frame| {
            pages += 1;
            assert!(frame.is_none(), "the written page is private");
        });
        assert_eq!(pages, 1);
        // The shared frame and the image's bytes are untouched.
        assert_eq!(shared.bytes(), &[2; 100][..]);
        assert_eq!(&img.segments[0].bytes[..], &[2; 100][..]);
        let mut b = AddressSpace::new();
        b.map(&frames).unwrap();
        let mut word = [0u8; 4];
        b.read(0x4000_0000 + PAGE_SIZE - 4, &mut word).unwrap();
        assert_eq!(word, [0; 4]);
    }

    #[test]
    fn a_page_two_segments_share_gets_its_own_buffer() {
        // Text ends mid-page and rodata starts right after it.
        let img = image(vec![
            seg(SectionKind::Text, 0x1000, vec![1; 5000], 0),
            seg(SectionKind::RoData, 0x1000 + 5000, vec![3; 16], 0),
        ]);
        let f = ImageFrames::from_image(&img);
        assert_eq!(f.total_pages(), 2);
        let frames = &f.segments[0].frames;
        assert_eq!(frames[0].bytes().as_ptr(), img.segments[0].bytes.as_ptr());
        let shared = &frames[1];
        let inside = |seg: &Segment| seg.bytes.as_ptr_range().contains(&shared.bytes().as_ptr());
        assert!(!inside(&img.segments[0]) && !inside(&img.segments[1]));
        let cut = 5000 - PAGE_SIZE as usize;
        assert_eq!(shared.bytes().len(), cut + 16);
        assert!(shared.bytes()[..cut].iter().all(|&b| b == 1));
        assert!(shared.bytes()[cut..].iter().all(|&b| b == 3));
    }

    #[test]
    fn bss_merges_into_data_tail_page() {
        // Data: 100 bytes at 0x40000000; BSS: 8000 zero bytes at 0x40000068.
        let img = image(vec![
            seg(SectionKind::Data, 0x4000_0000, vec![7; 100], 0),
            seg(SectionKind::Bss, 0x4000_0068, Vec::new(), 8000),
        ]);
        let f = ImageFrames::from_image(&img);
        // 0x68 + 8000 = 0x1fc8 → pages 0..2 → 2 pages total (one run).
        assert_eq!(f.segments.len(), 1);
        assert_eq!(f.total_pages(), 2);
        assert!(f.segments[0].writable);
        assert!(!f.segments[0].shareable);
    }

    #[test]
    fn map_read_write_cow() {
        let img = image(vec![
            seg(SectionKind::Text, 0x1000, vec![1; 16], 0),
            seg(SectionKind::Data, 0x4000_0000, vec![2; 16], 0),
        ]);
        let frames = ImageFrames::from_image(&img);
        let mut a = AddressSpace::new();
        let mut b = AddressSpace::new();
        a.map(&frames).unwrap();
        b.map(&frames).unwrap();

        // Reads see the image contents.
        let mut buf = [0u8; 4];
        a.read(0x1000, &mut buf).unwrap();
        assert_eq!(buf, [1, 1, 1, 1]);

        // Text is not writable.
        assert!(matches!(
            a.write(0x1000, &[9]),
            Err(VmFault::MemFault { write: true, .. })
        ));

        // Data writes COW: b does not observe a's store.
        a.write(0x4000_0000, &[9]).unwrap();
        assert_eq!(a.cow_faults, 1);
        let mut ab = [0u8; 1];
        let mut bb = [0u8; 1];
        a.read(0x4000_0000, &mut ab).unwrap();
        b.read(0x4000_0000, &mut bb).unwrap();
        assert_eq!(ab, [9]);
        assert_eq!(bb, [2]);
        // Second write to the same page: no new fault.
        a.write(0x4000_0004, &[9]).unwrap();
        assert_eq!(a.cow_faults, 1);
    }

    #[test]
    fn zero_pages_hold_no_bytes_until_written() {
        let mut a = AddressSpace::new();
        let work = a.map_private_zero(0x7000_0000, 2).unwrap();
        assert_eq!(
            work,
            MapWork {
                regions: 1,
                pages: 2
            }
        );
        assert_eq!(a.mapped_pages(), 2);
        let unwritten = |a: &AddressSpace| {
            let written = a.regions.iter().flat_map(|r| &r.written).flatten();
            a.mapped_pages() - written.count() as u64
        };
        assert_eq!(unwritten(&a), 2);
        // An unwritten page reads as zero, also across the page boundary.
        let mut buf = [0xffu8; 8];
        a.read(0x7000_0000 + PAGE_SIZE - 4, &mut buf).unwrap();
        assert_eq!(buf, [0; 8]);
        assert_eq!(unwritten(&a), 2, "reading allocates nothing");
        let before = MemoryAccounting::measure(&[&a]);
        // The first write allocates the page; it is not a CoW fault.
        a.write(0x7000_0010, &[1, 2, 3]).unwrap();
        assert_eq!(a.cow_faults, 0);
        assert_eq!(unwritten(&a), 1);
        let mut back = [0xffu8; 5];
        a.read(0x7000_000f, &mut back).unwrap();
        assert_eq!(back, [0, 1, 2, 3, 0]);
        // Written or not, a private page counts the same.
        assert_eq!(MemoryAccounting::measure(&[&a]), before);
        assert_eq!(
            before,
            MemoryAccounting {
                mapped_pages: 2,
                resident_frames: 2,
                private_pages: 2,
            }
        );
    }

    #[test]
    fn unmapped_access_faults() {
        let mut a = AddressSpace::new();
        let mut buf = [0u8; 4];
        assert!(a.read(0x5000, &mut buf).is_err());
        assert!(a.write(0x5000, &buf).is_err());
    }

    #[test]
    fn cross_page_access() {
        let mut a = AddressSpace::new();
        a.map_private_zero(0x1000, 2).unwrap();
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
        a.write(0x1ffc, &data).unwrap();
        let mut back = [0u8; 8];
        a.read(0x1ffc, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn mapping_collision_rejected() {
        let img = image(vec![seg(SectionKind::Text, 0x1000, vec![1; 16], 0)]);
        let frames = ImageFrames::from_image(&img);
        let mut a = AddressSpace::new();
        a.map(&frames).unwrap();
        assert!(a.map(&frames).is_err());
        assert!(a.map_private_zero(0x1000, 1).is_err());
    }

    #[test]
    fn unaligned_map_rejected() {
        let mut a = AddressSpace::new();
        let seg = FrameSegment {
            vaddr: 0x1004,
            frames: Arc::new([Arc::new(Frame::zeroed())]),
            writable: false,
            shareable: true,
        };
        assert!(a.map_segment(&seg).is_err());
        assert!(a.map_private_zero(0x1004, 1).is_err());
    }

    #[test]
    fn accounting_measures_sharing() {
        let img = image(vec![
            seg(SectionKind::Text, 0x1000, vec![1; 8192], 0), // 2 shareable pages
            seg(SectionKind::Data, 0x4000_0000, vec![2; 100], 0), // 1 COW page
        ]);
        let frames = ImageFrames::from_image(&img);
        let mut spaces: Vec<AddressSpace> = (0..10).map(|_| AddressSpace::new()).collect();
        for s in &mut spaces {
            s.map(&frames).unwrap();
        }
        // One process dirties its data page.
        spaces[0].write(0x4000_0000, &[9]).unwrap();

        let refs: Vec<&AddressSpace> = spaces.iter().collect();
        let acc = MemoryAccounting::measure(&refs);
        assert_eq!(acc.mapped_pages, 30);
        // 2 text frames + 1 shared data frame + 1 private copy = 4.
        assert_eq!(acc.resident_frames, 4);
        assert_eq!(acc.private_pages, 1);
        assert_eq!(acc.pages_saved(), 26);
    }

    #[test]
    fn frames_preserve_entry_and_extent() {
        let img = image(vec![seg(SectionKind::Text, 0x1000, vec![1; 5000], 0)]);
        let f = ImageFrames::from_image(&img);
        assert_eq!(f.entry, Some(0x1000));
        assert_eq!(f.segments[0].vaddr, 0x1000);
        assert_eq!(f.total_pages(), 2);
    }
}
