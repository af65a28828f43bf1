//! Flat, byte-comparable form of extended Dewey codes.
//!
//! [`DeweyCode`] stores one `u32` per component; every ancestor/ordering
//! check walks components. This module packs a code into one contiguous
//! byte slice whose plain byte comparison reproduces the component
//! semantics exactly:
//!
//! * **byte order ⇔ component order** — each component is written as an
//!   *order-preserving, prefix-free* varint (class tag in the high bits of
//!   the first byte, big-endian payload), so comparing two encoded codes
//!   byte-by-byte (shorter-is-smaller on ties) equals comparing their
//!   component vectors lexicographically, which is document order;
//! * **byte prefix ⇔ ancestor-or-self** — the per-component encoding is
//!   self-delimiting, so component boundaries of two codes coincide on any
//!   common byte prefix; one encoded code is a byte prefix of another iff
//!   its component vector is a prefix, i.e. its node is an ancestor-or-self.
//!
//! Both properties are exercised against the reference per-component
//! comparator by the proptest battery in `tests/proptest_xml.rs`.
//!
//! The varint classes (first-byte tag → payload bits):
//!
//! | first byte  | total bytes | component range            |
//! |-------------|-------------|----------------------------|
//! | `0x00-0x7F` | 1           | `0 .. 2^7`                 |
//! | `0x80-0xBF` | 2           | `2^7 .. 2^14`              |
//! | `0xC0-0xDF` | 3           | `2^14 .. 2^21`             |
//! | `0xE0-0xEF` | 4           | `2^21 .. 2^28`             |
//! | `0xF0`      | 5           | `2^28 .. 2^32` (4 BE bytes)|
//!
//! Encoding always uses the shortest class (canonical form); the class tags
//! are ordered, so a larger component never compares below a smaller one
//! across classes. [`FlatCodes`] stores many codes struct-of-arrays (one
//! byte arena + an offset array), the layout the fragment store and the
//! holistic join operate on, and provides the galloping
//! (exponential-probe + binary-search) primitives the join is built from.

use std::cmp::Ordering;

use crate::dewey::DeweyCode;

/// Append the canonical encoding of one component to `out`.
pub fn push_component(out: &mut Vec<u8>, v: u32) {
    if v < 1 << 7 {
        out.push(v as u8);
    } else if v < 1 << 14 {
        out.extend_from_slice(&[0x80 | (v >> 8) as u8, v as u8]);
    } else if v < 1 << 21 {
        out.extend_from_slice(&[0xC0 | (v >> 16) as u8, (v >> 8) as u8, v as u8]);
    } else if v < 1 << 28 {
        out.extend_from_slice(&[
            0xE0 | (v >> 24) as u8,
            (v >> 16) as u8,
            (v >> 8) as u8,
            v as u8,
        ]);
    } else {
        out.push(0xF0);
        out.extend_from_slice(&v.to_be_bytes());
    }
}

/// Encode a whole component vector.
pub fn encode_components(comps: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(comps.len());
    for &c in comps {
        push_component(&mut out, c);
    }
    out
}

/// Read one component from the front of `bytes`; returns the value and the
/// number of bytes consumed. `None` on an empty, malformed, or
/// non-canonical (over-long) encoding.
pub fn read_component(bytes: &[u8]) -> Option<(u32, usize)> {
    let b0 = *bytes.first()?;
    match b0 {
        0x00..=0x7F => Some((b0 as u32, 1)),
        0x80..=0xBF => {
            let v = ((b0 & 0x3F) as u32) << 8 | *bytes.get(1)? as u32;
            (v >= 1 << 7).then_some((v, 2))
        }
        0xC0..=0xDF => {
            let v =
                ((b0 & 0x1F) as u32) << 16 | (*bytes.get(1)? as u32) << 8 | *bytes.get(2)? as u32;
            (v >= 1 << 14).then_some((v, 3))
        }
        0xE0..=0xEF => {
            let v = ((b0 & 0x0F) as u32) << 24
                | (*bytes.get(1)? as u32) << 16
                | (*bytes.get(2)? as u32) << 8
                | *bytes.get(3)? as u32;
            (v >= 1 << 21).then_some((v, 4))
        }
        0xF0 => {
            let v = u32::from_be_bytes(bytes.get(1..5)?.try_into().ok()?);
            (v >= 1 << 28).then_some((v, 5))
        }
        _ => None,
    }
}

/// Iterator over the components of an encoded code, yielding
/// `(value, end_offset)` — `end_offset` is the byte length of the code's
/// prefix up to and including this component, which is exactly the encoded
/// form of the corresponding ancestor-or-self code. Stops early on
/// malformed bytes (use [`decode_components`] to detect that).
pub fn components(bytes: &[u8]) -> Components<'_> {
    Components { bytes, pos: 0 }
}

/// See [`components`].
pub struct Components<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Iterator for Components<'_> {
    type Item = (u32, usize);

    fn next(&mut self) -> Option<(u32, usize)> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let (v, n) = read_component(&self.bytes[self.pos..])?;
        self.pos += n;
        Some((v, self.pos))
    }
}

/// Decode a full code back into its component vector; `None` if `bytes` is
/// not a concatenation of canonical component encodings.
pub fn decode_components(bytes: &[u8]) -> Option<Vec<u32>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let (v, n) = read_component(&bytes[pos..])?;
        out.push(v);
        pos += n;
    }
    Some(out)
}

/// Encode a [`DeweyCode`].
pub fn encode_code(code: &DeweyCode) -> Vec<u8> {
    encode_components(code.components())
}

/// Decode back into a [`DeweyCode`]; `None` on malformed bytes.
pub fn decode_code(bytes: &[u8]) -> Option<DeweyCode> {
    decode_components(bytes).map(DeweyCode)
}

/// Compare two encoded codes: chunked (u64-at-a-time) byte-lexicographic
/// comparison with shorter-is-smaller ties. Equals the component-wise
/// [`DeweyCode`] order, i.e. document order (ancestors before descendants).
///
/// Big-endian u64 loads make an 8-byte integer compare agree with the
/// byte-by-byte order, so the loop touches one word per iteration instead
/// of one byte and stays branch-light until the first differing word.
#[inline]
pub fn flat_cmp(a: &[u8], b: &[u8]) -> Ordering {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let x = u64::from_be_bytes(a[i..i + 8].try_into().unwrap());
        let y = u64::from_be_bytes(b[i..i + 8].try_into().unwrap());
        if x != y {
            return x.cmp(&y);
        }
        i += 8;
    }
    while i < n {
        if a[i] != b[i] {
            return a[i].cmp(&b[i]);
        }
        i += 1;
    }
    a.len().cmp(&b.len())
}

/// True iff `a` is a byte prefix of `b` — by the prefix-free component
/// encoding, exactly when `a`'s node is an ancestor-or-self of `b`'s.
#[inline]
pub fn flat_is_prefix(a: &[u8], b: &[u8]) -> bool {
    b.len() >= a.len() && flat_cmp(a, &b[..a.len()]) == Ordering::Equal
}

/// Comparison-work tally for the galloping primitives, kept
/// metrics-agnostic so this crate needs no dependency on the engine's
/// counter machinery; the rewriter folds it into its stage counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CmpStats {
    /// Full code comparisons performed.
    pub comparisons: u64,
    /// Of those, comparisons issued as galloping probes (exponential
    /// doubling + the binary search that pins the landing point).
    pub probes: u64,
    /// List entries a linear scan-merge would have visited that galloping
    /// jumped over without touching.
    pub skipped: u64,
    /// Bytes actually compared (`min(len)` per comparison) — the memory
    /// traffic of the join.
    pub bytes: u64,
}

impl CmpStats {
    /// Compare two codes, tallying one comparison (not a probe).
    #[inline]
    pub fn compare(&mut self, a: &[u8], b: &[u8]) -> Ordering {
        self.comparisons += 1;
        self.bytes += a.len().min(b.len()) as u64;
        flat_cmp(a, b)
    }

    /// Compare two codes as a galloping probe.
    #[inline]
    fn probe(&mut self, a: &[u8], b: &[u8]) -> Ordering {
        self.probes += 1;
        self.compare(a, b)
    }

    /// Equality check, tallying one comparison.
    #[inline]
    pub fn eq(&mut self, a: &[u8], b: &[u8]) -> bool {
        self.compare(a, b) == Ordering::Equal
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: &CmpStats) {
        self.comparisons += other.comparisons;
        self.probes += other.probes;
        self.skipped += other.skipped;
        self.bytes += other.bytes;
    }
}

/// Many encoded codes stored struct-of-arrays: one contiguous byte arena
/// plus an offset array (`n + 1` entries). Code `i` is
/// `bytes[offsets[i]..offsets[i+1]]` — no per-code allocation, and
/// neighbouring codes in a sorted list share cache lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatCodes {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
}

impl Default for FlatCodes {
    fn default() -> FlatCodes {
        FlatCodes {
            bytes: Vec::new(),
            offsets: vec![0],
        }
    }
}

impl FlatCodes {
    /// Fresh empty arena.
    pub fn new() -> FlatCodes {
        FlatCodes::default()
    }

    /// Empty arena with room for `codes` codes of `bytes` encoded bytes
    /// in total, so that filling it exactly allocates nothing more.
    pub fn with_capacity(codes: usize, bytes: usize) -> FlatCodes {
        let mut offsets = Vec::with_capacity(codes + 1);
        offsets.push(0);
        FlatCodes {
            bytes: Vec::with_capacity(bytes),
            offsets,
        }
    }

    /// Number of codes stored.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// No codes stored.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// The encoded code at index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Append a code given as components.
    pub fn push_components(&mut self, comps: &[u32]) {
        for &c in comps {
            push_component(&mut self.bytes, c);
        }
        self.offsets.push(self.bytes.len() as u32);
    }

    /// Append an already-encoded code.
    pub fn push_encoded(&mut self, code: &[u8]) {
        self.bytes.extend_from_slice(code);
        self.offsets.push(self.bytes.len() as u32);
    }

    /// Iterate the encoded codes in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.bytes.capacity() + self.offsets.capacity() * 4
    }

    /// True when codes are in strictly ascending [`flat_cmp`] order.
    pub fn is_strictly_sorted(&self) -> bool {
        (1..self.len()).all(|i| flat_cmp(self.get(i - 1), self.get(i)) == Ordering::Less)
    }

    /// Plain binary search (sorted arena): `Ok(index)` on a hit,
    /// `Err(insertion_point)` otherwise.
    pub fn binary_search(&self, key: &[u8]) -> Result<usize, usize> {
        let mut lo = 0;
        let mut hi = self.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match flat_cmp(self.get(mid), key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Galloping lower bound over a sorted arena: the first index
    /// `>= from` whose code compares `>= key`, found by exponential
    /// probing from `from` followed by a binary search inside the last
    /// doubling window. `O(log d)` comparisons for a landing point `d`
    /// entries ahead — the skip pointer that lets a merge of sorted code
    /// lists jump instead of scan.
    pub fn gallop_lower_bound(&self, from: usize, key: &[u8], stats: &mut CmpStats) -> usize {
        let n = self.len();
        if from >= n {
            return n;
        }
        let probes_before = stats.probes;
        if stats.probe(self.get(from), key) != Ordering::Less {
            return from;
        }
        // Invariant: self[lo] < key; exponentially widen until the probe
        // lands at-or-past key (or the end).
        let mut lo = from;
        let mut step = 1usize;
        let mut hi = loop {
            let next = lo + step;
            if next >= n {
                break n;
            }
            if stats.probe(self.get(next), key) == Ordering::Less {
                lo = next;
                step <<= 1;
            } else {
                break next;
            }
        };
        // First `>= key` lies in (lo, hi]; binary search the window.
        let mut l = lo + 1;
        while l < hi {
            let mid = l + (hi - l) / 2;
            if stats.probe(self.get(mid), key) == Ordering::Less {
                l = mid + 1;
            } else {
                hi = mid;
            }
        }
        let probes = stats.probes - probes_before;
        // A scan-merge would have compared every entry in [from, l].
        stats.skipped += ((l - from + 1) as u64).saturating_sub(probes);
        l
    }
}

/// Multi-way intersection of strictly sorted arenas by a galloping merge:
/// the smallest list drives, and for each of its codes every other list
/// gallops its own forward cursor to the first entry `>= key`
/// ([`FlatCodes::gallop_lower_bound`]); the code is emitted iff every list
/// lands on an exact match. Cursors never move backwards, so each list is
/// traversed at most once — the same skip-pointer discipline as the
/// holistic join, which makes the intersection just another join over
/// sorted flat codes.
///
/// Inputs must each be strictly sorted (the invariant every fragment-root
/// arena maintains); the output is then strictly sorted too, and identical
/// for any permutation of `lists`. With zero inputs the intersection of
/// nothing is empty; with one input it is a copy of that input.
///
/// Work bound: one gallop landing `d` entries ahead issues at most
/// `2*(d + 1)` probes (1 initial + t doubling + at most t-1 binary-search
/// probes, with `d >= 2^(t-1)`), so total probes never exceed twice the
/// entries a linear k-way scan-merge would visit. The proptest battery in
/// `tests/proptest_xml.rs` holds this bound against arbitrary inputs.
pub fn intersect_many(lists: &[&FlatCodes], stats: &mut CmpStats) -> FlatCodes {
    let mut out = FlatCodes::new();
    let Some(driver) = (0..lists.len()).min_by_key(|&i| lists[i].len()) else {
        return out;
    };
    if lists[driver].is_empty() {
        return out;
    }
    if lists.len() == 1 {
        return lists[driver].clone();
    }
    let mut cursors = vec![0usize; lists.len()];
    'driver: for i in 0..lists[driver].len() {
        let key = lists[driver].get(i);
        let mut in_all = true;
        for (j, list) in lists.iter().enumerate() {
            if j == driver {
                continue;
            }
            let pos = list.gallop_lower_bound(cursors[j], key, stats);
            if pos == list.len() {
                // This list is exhausted: nothing at-or-past `key` exists,
                // and later driver keys are larger still.
                break 'driver;
            }
            cursors[j] = pos;
            if !stats.eq(list.get(pos), key) {
                in_all = false;
                break;
            }
        }
        if in_all {
            out.push_encoded(key);
        }
    }
    out
}

impl FromIterator<Vec<u32>> for FlatCodes {
    fn from_iter<I: IntoIterator<Item = Vec<u32>>>(iter: I) -> FlatCodes {
        let mut fc = FlatCodes::new();
        for comps in iter {
            fc.push_components(&comps);
        }
        fc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_roundtrip_at_class_boundaries() {
        for v in [
            0u32,
            1,
            127,
            128,
            255,
            256,
            (1 << 14) - 1,
            1 << 14,
            (1 << 21) - 1,
            1 << 21,
            (1 << 28) - 1,
            1 << 28,
            u32::MAX,
        ] {
            let mut bytes = Vec::new();
            push_component(&mut bytes, v);
            assert_eq!(read_component(&bytes), Some((v, bytes.len())), "{v}");
        }
    }

    #[test]
    fn component_byte_order_is_value_order() {
        let vals = [
            0u32,
            1,
            5,
            126,
            127,
            128,
            129,
            1000,
            (1 << 14) - 1,
            1 << 14,
            70_000,
            (1 << 21) - 1,
            1 << 21,
            (1 << 28) - 1,
            1 << 28,
            u32::MAX - 1,
            u32::MAX,
        ];
        for &a in &vals {
            for &b in &vals {
                let (mut ea, mut eb) = (Vec::new(), Vec::new());
                push_component(&mut ea, a);
                push_component(&mut eb, b);
                assert_eq!(ea.cmp(&eb), a.cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn non_canonical_encodings_rejected() {
        // 2-byte encoding of 5 (< 128) is over-long.
        assert_eq!(read_component(&[0x80, 5]), None);
        // 3-byte encoding of a value < 2^14.
        assert_eq!(read_component(&[0xC0, 0x00, 5]), None);
        // 5-byte encoding of a value < 2^28.
        assert_eq!(read_component(&[0xF0, 0, 0, 0, 5]), None);
        // Reserved first bytes.
        assert_eq!(read_component(&[0xF1]), None);
        assert_eq!(read_component(&[0xFF]), None);
        // Truncated payloads.
        assert_eq!(read_component(&[0x80]), None);
        assert_eq!(read_component(&[]), None);
    }

    #[test]
    fn code_roundtrip_and_prefix() {
        let code = DeweyCode(vec![0, 8, 600, 1 << 20, u32::MAX]);
        let bytes = encode_code(&code);
        assert_eq!(decode_code(&bytes), Some(code.clone()));
        let parent = encode_components(&[0, 8, 600, 1 << 20]);
        assert!(flat_is_prefix(&parent, &bytes));
        assert!(!flat_is_prefix(&bytes, &parent));
        let sibling = encode_components(&[0, 8, 601]);
        assert!(!flat_is_prefix(&sibling, &bytes));
        // Empty code is everyone's prefix and sorts first.
        assert!(flat_is_prefix(&[], &bytes));
        assert_eq!(flat_cmp(&[], &bytes), Ordering::Less);
    }

    #[test]
    fn components_yield_prefix_boundaries() {
        let bytes = encode_components(&[3, 200, 9]);
        let parts: Vec<(u32, usize)> = components(&bytes).collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].0, 3);
        assert_eq!(parts[1].0, 200);
        assert_eq!(parts[2], (9, bytes.len()));
        // Each end offset is itself the encoding of the ancestor code.
        assert_eq!(decode_components(&bytes[..parts[1].1]), Some(vec![3, 200]));
    }

    #[test]
    fn flat_cmp_matches_reference_on_long_codes() {
        // Codes longer than 8 bytes exercise the chunked loop.
        let a = DeweyCode((0..20).collect());
        let mut b_comps: Vec<u32> = (0..20).collect();
        b_comps[17] = 99;
        let b = DeweyCode(b_comps);
        assert_eq!(flat_cmp(&encode_code(&a), &encode_code(&b)), a.cmp(&b));
        assert_eq!(
            flat_cmp(&encode_code(&a), &encode_code(&a)),
            Ordering::Equal
        );
    }

    fn arena(codes: &[&[u32]]) -> FlatCodes {
        codes.iter().map(|c| c.to_vec()).collect()
    }

    #[test]
    fn arena_accessors() {
        let fc = arena(&[&[0], &[0, 3], &[0, 3, 1], &[0, 500]]);
        assert_eq!(fc.len(), 4);
        assert!(!fc.is_empty());
        assert!(fc.is_strictly_sorted());
        assert_eq!(decode_components(fc.get(3)), Some(vec![0, 500]));
        assert_eq!(fc.iter().count(), 4);
        assert_eq!(fc.binary_search(&encode_components(&[0, 3])), Ok(1));
        assert_eq!(fc.binary_search(&encode_components(&[0, 4])), Err(3));
        assert!(FlatCodes::new().is_empty());
        assert!(fc.heap_size() > 0);
    }

    #[test]
    fn gallop_matches_linear_lower_bound() {
        let comps: Vec<Vec<u32>> = (0..200u32).map(|i| vec![0, i * 3]).collect();
        let fc: FlatCodes = comps.into_iter().collect();
        let mut stats = CmpStats::default();
        for probe in 0..620u32 {
            let key = encode_components(&[0, probe]);
            let want = (0..fc.len())
                .find(|&i| flat_cmp(fc.get(i), &key) != Ordering::Less)
                .unwrap_or(fc.len());
            for from in [0, want.saturating_sub(2), want.min(fc.len())] {
                if from <= want {
                    assert_eq!(
                        fc.gallop_lower_bound(from, &key, &mut stats),
                        want,
                        "{probe}"
                    );
                }
            }
        }
        assert!(stats.comparisons > 0 && stats.probes > 0);
        assert!(stats.skipped > 0, "long jumps must skip entries");
    }

    #[test]
    fn intersect_many_small_cases() {
        let a = arena(&[&[0], &[0, 1], &[0, 3], &[0, 5], &[1]]);
        let b = arena(&[&[0, 1], &[0, 2], &[0, 5], &[2]]);
        let c = arena(&[&[0, 1], &[0, 5]]);
        let mut stats = CmpStats::default();
        let abc = intersect_many(&[&a, &b, &c], &mut stats);
        assert_eq!(
            abc.iter()
                .map(|x| decode_components(x).unwrap())
                .collect::<Vec<_>>(),
            vec![vec![0, 1], vec![0, 5]]
        );
        assert!(abc.is_strictly_sorted());
        // Input order must not change the result.
        let mut stats2 = CmpStats::default();
        assert_eq!(intersect_many(&[&c, &a, &b], &mut stats2), abc);
        assert_eq!(intersect_many(&[&b, &c, &a], &mut stats2), abc);
        // Disjoint lists intersect empty; an empty member empties all.
        let d = arena(&[&[7]]);
        assert!(intersect_many(&[&a, &d], &mut stats).is_empty());
        assert!(intersect_many(&[&a, &FlatCodes::new()], &mut stats).is_empty());
        // Degenerate arities.
        assert!(intersect_many(&[], &mut stats).is_empty());
        assert_eq!(intersect_many(&[&a], &mut stats), a);
    }

    #[test]
    fn intersect_many_probes_within_linear_bound() {
        // Adversarial interleaving: b advances two entries per driver key.
        let a: FlatCodes = (0..100u32).map(|i| vec![3 * i]).collect();
        let b: FlatCodes = (0..300u32).map(|i| vec![i]).collect();
        let mut stats = CmpStats::default();
        let got = intersect_many(&[&a, &b], &mut stats);
        assert_eq!(got.len(), 100);
        let linear = (a.len() + b.len() + a.len()) as u64; // entries + one probe per call
        assert!(
            stats.probes <= 2 * linear,
            "{} probes > 2x linear bound {linear}",
            stats.probes
        );
    }

    #[test]
    fn gallop_on_empty_and_past_end() {
        let fc = FlatCodes::new();
        let mut stats = CmpStats::default();
        assert_eq!(fc.gallop_lower_bound(0, &[1], &mut stats), 0);
        let fc = arena(&[&[1], &[2]]);
        assert_eq!(fc.gallop_lower_bound(2, &[0], &mut stats), 2);
        assert_eq!(
            fc.gallop_lower_bound(0, &encode_components(&[9]), &mut stats),
            2
        );
    }
}
