//! The byte form in which the replay buffer holds each transition.
//!
//! A transition is one self-delimiting little-endian *part*: the state
//! tensor, the action (`u64`), the reward (`f32`), the next-state tensor
//! and the done flag (`u8`, 0 or 1). It is also the transition's piece of
//! a `deepq` resume checkpoint, so the buffer stores it once and a
//! snapshot shares it.
//!
//! A tensor is its rank and dimensions (`u64` each), a tag byte, and a
//! payload: raw f32s, or, when it holds at most four distinct values, a
//! 2-bit palette. Replay observations are rendered game frames holding
//! exactly {0.0, 0.6, 1.0}, so palette coding shrinks the dominant
//! payload 16x. Palette entries are the original f32 bit patterns in
//! first-occurrence order, so NaN payloads and signed zeros come back
//! bit for bit.
//!
//! Parts arrive from disk through [`read_part`], which checks every
//! field and returns a descriptive `Err` instead of panicking; a valid
//! part that is not what [`put_tensor`] would write is written afresh,
//! so a stored part is always canonical.

use std::sync::Arc;

use fathom_tensor::Tensor;

/// Encoding for one tensor payload.
const TENSOR_RAW: u8 = 0;
const TENSOR_PALETTE: u8 = 1;

/// Bytes between the two tensors: the action and the reward.
const SCALARS: usize = 12;

/// Bytes after the next-state tensor: the done flag.
const TAIL: usize = 1;

/// Appends the encoding of the tensor `dims`/`data` to `buf`, as a
/// palette when `data` holds at most four distinct bit patterns and raw
/// otherwise.
pub(crate) fn put_tensor(buf: &mut Vec<u8>, dims: &[usize], data: &[f32]) {
    buf.extend_from_slice(&(dims.len() as u64).to_le_bytes());
    for &d in dims {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
    match palette_pack(data) {
        Some((palette, packed)) => {
            buf.push(TENSOR_PALETTE);
            buf.push(palette.len() as u8);
            for &bits in &palette {
                buf.extend_from_slice(&bits.to_le_bytes());
            }
            buf.extend_from_slice(&packed);
        }
        None => {
            buf.push(TENSOR_RAW);
            for &v in data {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// The palette (distinct bit patterns in first-occurrence order) and the
/// 2-bit indices of `data`, four to a byte, low bits first; `None` when
/// `data` is empty or holds a fifth distinct value.
///
/// One pass: the palette grows and the indices are packed as the data
/// is read; a fifth distinct value abandons the packing.
pub(crate) fn palette_pack(data: &[f32]) -> Option<(Vec<u32>, Vec<u8>)> {
    let first = data.first()?.to_bits();
    let mut palette: Vec<u32> = Vec::with_capacity(4);
    palette.push(first);
    let mut packed = Vec::with_capacity(data.len().div_ceil(4));
    // Rendered frames are long runs of one value: the palette is only
    // searched when an element differs from the one before it.
    let (mut last_bits, mut last_idx) = (first, 0u8);
    for chunk in data.chunks(4) {
        let mut byte = 0u8;
        for (slot, &v) in chunk.iter().enumerate() {
            let bits = v.to_bits();
            if bits != last_bits {
                last_idx = match palette.iter().position(|&p| p == bits) {
                    Some(idx) => idx as u8,
                    None if palette.len() == 4 => return None,
                    None => {
                        palette.push(bits);
                        (palette.len() - 1) as u8
                    }
                };
                last_bits = bits;
            }
            byte |= last_idx << (slot * 2);
        }
        packed.push(byte);
    }
    Some((palette, packed))
}

/// A transition's part and the fields a sample reads without decoding.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    /// The encoded transition; the state tensor starts at offset 0.
    pub(crate) part: Arc<[u8]>,
    /// Offset of the next-state tensor in `part`.
    pub(crate) next_at: usize,
    pub(crate) action: usize,
    pub(crate) reward: f32,
    pub(crate) done: bool,
}

impl Slot {
    /// Completes a part whose state tensor `buf` already holds.
    pub(crate) fn finish(
        mut buf: Vec<u8>,
        action: usize,
        reward: f32,
        next: &Tensor,
        done: bool,
    ) -> Slot {
        buf.extend_from_slice(&(action as u64).to_le_bytes());
        buf.extend_from_slice(&reward.to_le_bytes());
        let next_at = buf.len();
        put_tensor(&mut buf, next.shape().dims(), next.data());
        buf.push(u8::from(done));
        Slot { part: buf.into(), next_at, action, reward, done }
    }

    /// The encoded state tensor.
    pub(crate) fn state_bytes(&self) -> &[u8] {
        &self.part[..self.next_at - SCALARS]
    }

    /// The encoded next-state tensor.
    pub(crate) fn next_bytes(&self) -> &[u8] {
        &self.part[self.next_at..self.part.len() - TAIL]
    }
}

/// Bytes a palette-coded tensor of `dims` takes, the usual size of an
/// observation's encoding.
pub(crate) fn palette_len(dims: &[usize]) -> usize {
    8 + 8 * dims.len() + 2 + 16 + dims.iter().product::<usize>().div_ceil(4)
}

/// The dimensions of the tensor encoded at the start of `bytes` (a
/// checked encoding) and the offset of its tag byte.
pub(crate) fn tensor_dims(bytes: &[u8]) -> (Vec<usize>, usize) {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")) as usize;
    let rank = word(0);
    ((0..rank).map(|i| word(8 + 8 * i)).collect(), 8 + 8 * rank)
}

/// Appends the elements of the checked tensor encoding `bytes` to `out`.
pub(crate) fn decode_into(bytes: &[u8], out: &mut Vec<f32>) {
    let (dims, tag_at) = tensor_dims(bytes);
    let n: usize = dims.iter().product();
    let payload = &bytes[tag_at + 1..];
    if bytes[tag_at] == TENSOR_RAW {
        out.extend(payload[..4 * n].chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))));
        return;
    }
    let count = payload[0] as usize;
    let mut palette = [0f32; 4];
    for (i, p) in palette.iter_mut().enumerate() {
        // Indices at or past `count` occur only in pad bits, which are
        // never copied out.
        let at = 1 + 4 * i.min(count - 1);
        *p = f32::from_bits(u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes")));
    }
    // One byte holds four elements: look all four up at once.
    let mut table = [[0f32; 4]; 256];
    for (byte, row) in table.iter_mut().enumerate() {
        for (slot, v) in row.iter_mut().enumerate() {
            *v = palette[(byte >> (slot * 2)) & 0b11];
        }
    }
    let packed = &payload[1 + 4 * count..];
    let (full, tail) = packed.split_at(n / 4);
    for &b in full {
        out.extend_from_slice(&table[b as usize]);
    }
    if !n.is_multiple_of(4) {
        out.extend_from_slice(&table[tail[0] as usize][..n % 4]);
    }
}

/// Decodes a checked tensor encoding into its dimensions and elements.
fn decode(bytes: &[u8]) -> (Vec<usize>, Vec<f32>) {
    let (dims, _) = tensor_dims(bytes);
    let mut data = Vec::with_capacity(dims.iter().product());
    decode_into(bytes, &mut data);
    (dims, data)
}

/// A bounds-checked read position in a blob.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.buf.len() - self.pos {
            return Err(format!(
                "pipeline blob truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Checks the tensor encoding at the read position and moves past
    /// it. `Ok(true)` when it is what [`put_tensor`] writes for the
    /// values it decodes to.
    fn tensor(&mut self) -> Result<bool, String> {
        let rank = self.u64()? as usize;
        if rank > 16 {
            return Err(format!("implausible tensor rank {rank}"));
        }
        let mut total: u64 = 1;
        for _ in 0..rank {
            total = total.saturating_mul(self.u64()?);
            if total > (1 << 28) {
                return Err("implausible tensor size".into());
            }
        }
        let n = total as usize;
        match self.take(1)?[0] {
            TENSOR_RAW => {
                let Ok(raw) = self.take(4 * n) else {
                    // Element by element, the first f32 that does not
                    // fit is the one reported.
                    self.pos += (self.buf.len() - self.pos) / 4 * 4;
                    return Err(self.take(4).expect_err("a partial element remains"));
                };
                Ok(n == 0 || distinct_bits_reach_five(raw))
            }
            TENSOR_PALETTE => {
                let count = self.take(1)?[0] as usize;
                if count == 0 || count > 4 {
                    return Err(format!("bad palette size {count}"));
                }
                let mut palette = [0u32; 4];
                for p in &mut palette[..count] {
                    *p = self.u32()?;
                }
                let packed = self.take(n.div_ceil(4))?;
                let ordered = indices_in_first_use_order(packed, n, count)?;
                let distinct = (1..count).all(|i| !palette[..i].contains(&palette[i]));
                let pad_clear = n.is_multiple_of(4) || packed[n / 4] >> (2 * (n % 4)) == 0;
                Ok(ordered && distinct && pad_clear && n > 0)
            }
            other => Err(format!("unknown tensor encoding tag {other}")),
        }
    }
}

/// Whether the f32s in `raw` hold at least five distinct bit patterns.
fn distinct_bits_reach_five(raw: &[u8]) -> bool {
    let mut seen: Vec<u32> = Vec::with_capacity(5);
    for c in raw.chunks_exact(4) {
        let bits = u32::from_le_bytes(c.try_into().expect("4 bytes"));
        if !seen.contains(&bits) {
            seen.push(bits);
            if seen.len() == 5 {
                return true;
            }
        }
    }
    false
}

/// The largest of the four 2-bit indices in each byte value.
const MAX_INDEX: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut slot = 0;
        while slot < 4 {
            let idx = ((byte >> (2 * slot)) & 0b11) as u8;
            if idx > table[byte] {
                table[byte] = idx;
            }
            slot += 1;
        }
        byte += 1;
    }
    table
};

/// Checks that the `n` 2-bit indices in `packed` are below `count`
/// (naming the first that is not); `Ok(true)` when every palette entry
/// is used and each first appears after the one before it, the order
/// [`palette_pack`] assigns.
fn indices_in_first_use_order(packed: &[u8], n: usize, count: usize) -> Result<bool, String> {
    let (mut next, mut ordered) = (0usize, true);
    for (i, &byte) in packed.iter().enumerate() {
        let slots = (n - 4 * i).min(4);
        // Every index in this byte was seen before: nothing to check.
        if slots == 4 && (MAX_INDEX[byte as usize] as usize) < next {
            continue;
        }
        for slot in 0..slots {
            let idx = ((byte >> (2 * slot)) & 0b11) as usize;
            if idx >= count {
                return Err(format!("palette index {idx} out of range"));
            }
            if idx == next {
                next += 1;
            } else if idx > next {
                ordered = false;
            }
        }
    }
    Ok(ordered && next == count)
}

/// Reads the transition part at `at` in `blob`, with every check the
/// tensor and scalar decoders make, and returns it as a stored slot with
/// the offset just past it. A part that is valid but not canonical
/// (pad bits set, a palette entry unused, out of first-use order or
/// repeated, a raw tensor of at most four values, a done byte other
/// than 0 or 1) is written afresh from the values it decodes to.
pub(crate) fn read_part(blob: &[u8], at: usize) -> Result<(Slot, usize), String> {
    let mut r = Reader { buf: blob, pos: at };
    let mut canonical = r.tensor()?;
    let action = r.u64()? as usize;
    let reward = f32::from_bits(r.u32()?);
    let next_at = r.pos - at;
    canonical &= r.tensor()?;
    let done_byte = r.take(1)?[0];
    canonical &= done_byte <= 1;
    let bytes = &blob[at..r.pos];
    let slot = if canonical {
        Slot { part: bytes.into(), next_at, action, reward, done: done_byte != 0 }
    } else {
        let (dims, data) = decode(bytes);
        let mut buf = Vec::with_capacity(bytes.len());
        put_tensor(&mut buf, &dims, &data);
        let (next_dims, next_data) = decode(&bytes[next_at..]);
        let next = Tensor::from_vec(next_data, next_dims);
        Slot::finish(buf, action, reward, &next, done_byte != 0)
    };
    Ok((slot, r.pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two-pass palette encoder [`put_tensor`] replaced: scan for the
    /// palette, then search it per element. Kept as the oracle the
    /// one-pass encoder must match byte for byte.
    fn two_pass_tensor(t: &Tensor) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(t.shape().rank() as u64).to_le_bytes());
        for &d in t.shape().dims() {
            buf.extend_from_slice(&(d as u64).to_le_bytes());
        }
        let mut palette: Vec<u32> = Vec::new();
        for &v in t.data() {
            let bits = v.to_bits();
            if !palette.contains(&bits) {
                palette.push(bits);
                if palette.len() > 4 {
                    break;
                }
            }
        }
        if palette.len() <= 4 && !t.data().is_empty() {
            buf.push(TENSOR_PALETTE);
            buf.push(palette.len() as u8);
            for &bits in &palette {
                buf.extend_from_slice(&bits.to_le_bytes());
            }
            let mut packed = 0u8;
            let mut filled = 0;
            for &v in t.data() {
                let idx = palette.iter().position(|&p| p == v.to_bits()).unwrap() as u8;
                packed |= idx << (filled * 2);
                filled += 1;
                if filled == 4 {
                    buf.push(packed);
                    packed = 0;
                    filled = 0;
                }
            }
            if filled > 0 {
                buf.push(packed);
            }
        } else {
            buf.push(TENSOR_RAW);
            for &v in t.data() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    /// Encodes `bits` with both encoders, asserts equal bytes, that the
    /// reader takes the encoding as canonical, and the bitwise round
    /// trip.
    fn assert_matches_oracle(bits: &[u32]) {
        let t = Tensor::from_vec(bits.iter().map(|&b| f32::from_bits(b)).collect(), [bits.len()]);
        let mut one_pass = Vec::new();
        put_tensor(&mut one_pass, t.shape().dims(), t.data());
        assert_eq!(one_pass, two_pass_tensor(&t), "bits {bits:08x?}");
        let mut r = Reader { buf: &one_pass, pos: 0 };
        assert!(r.tensor().unwrap(), "the encoder's own bytes read as non-canonical: {bits:08x?}");
        assert_eq!(r.pos, one_pass.len());
        let (dims, back) = decode(&one_pass);
        assert_eq!(dims, [bits.len()]);
        assert_eq!(back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits);
    }

    #[test]
    fn one_pass_encoder_matches_the_two_pass_oracle_at_the_edges() {
        let (a, b, c, d, e) = (1.0f32.to_bits(), 2.0f32.to_bits(), 0.6f32.to_bits(), 0, 7.5f32.to_bits());
        // Exactly four distinct values (palette), exactly five (raw).
        assert_matches_oracle(&[a, b, c, d, a, d, c, b, a]);
        assert_matches_oracle(&[a, b, c, d, e, a, b]);
        // A fifth value only in the trailing partial chunk.
        assert_matches_oracle(&[a, b, c, d, d, c, b, a, e]);
        assert_matches_oracle(&[a, b, c, d, a, b, c, d, a, e]);
        // Every length 0..=9, with few values and with all-distinct ones.
        for len in 0..=9u32 {
            let few: Vec<u32> = (0..len).map(|i| [a, b, c][i as usize % 3]).collect();
            assert_matches_oracle(&few);
            let distinct: Vec<u32> = (0..len).map(|i| (i as f32).to_bits()).collect();
            assert_matches_oracle(&distinct);
        }
        // +0.0 and -0.0 are different bit patterns, and so are NaNs with
        // different payloads or signs.
        assert_matches_oracle(&[0.0f32.to_bits(), (-0.0f32).to_bits(), a, 0, a]);
        let nans = [0x7fc0_0000, 0x7fc0_0001, 0xffc0_0000, 0x7f80_0001];
        assert_matches_oracle(&[nans[0], nans[1], nans[2], nans[3], nans[1], nans[0]]);
        assert_matches_oracle(&[nans[0], nans[1], nans[2], nans[3], a]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random small palettes (1 to 6 values, so both sides of the
        /// four-value limit) drawn at random lengths.
        #[test]
        fn one_pass_encoder_matches_the_two_pass_oracle(
            palette in proptest::collection::vec(0u32..u32::MAX, 1..7),
            picks in proptest::collection::vec(0usize..64, 0..40),
        ) {
            let bits: Vec<u32> = picks.iter().map(|&i| palette[i % palette.len()]).collect();
            assert_matches_oracle(&bits);
        }
    }

    #[test]
    fn frame_like_tensors_take_two_bits_an_element() {
        // Exactly the three values game renders use.
        let data: Vec<f32> = (0..777).map(|i| [0.0, 0.6, 1.0][i % 3]).collect();
        let mut buf = Vec::new();
        put_tensor(&mut buf, &[777], &data);
        assert_eq!(buf.len(), palette_len(&[777]) - 4, "one palette entry unused");
        assert!(buf.len() < 777, "palette encoding is {} bytes", buf.len());
    }

    /// A canonical part of `state` and `next`, and the slot `read_part`
    /// makes of it.
    fn part_of(state: &Tensor, next: &Tensor) -> (Vec<u8>, Slot) {
        let mut buf = Vec::new();
        put_tensor(&mut buf, state.shape().dims(), state.data());
        let bytes = Slot::finish(buf, 2, -1.0, next, true).part.to_vec();
        let (slot, end) = read_part(&bytes, 0).unwrap();
        assert_eq!(end, bytes.len());
        (bytes, slot)
    }

    #[test]
    fn canonical_parts_are_adopted_as_they_are() {
        let state = Tensor::from_vec(vec![0.0, 0.6, 1.0, 0.6, 0.0], [1, 5]);
        let next = Tensor::from_vec((0..6).map(|i| i as f32).collect(), [1, 6]);
        let (bytes, slot) = part_of(&state, &next);
        assert_eq!(&*slot.part, &bytes[..]);
        assert_eq!((slot.action, slot.reward, slot.done), (2, -1.0, true));
        let mut out = Vec::new();
        decode_into(slot.state_bytes(), &mut out);
        assert_eq!(out, state.data());
        out.clear();
        decode_into(slot.next_bytes(), &mut out);
        assert_eq!(out, next.data());
    }

    #[test]
    fn non_canonical_parts_are_written_afresh() {
        let state = Tensor::from_vec(vec![0.0, 0.6, 0.6, 1.0, 0.0], [1, 5]);
        let next = Tensor::from_vec(vec![1.0, 1.0], [1, 2]);
        let (bytes, _) = part_of(&state, &next);
        // State: rank and two dims (24 bytes), tag, count 3, palette
        // {0.0, 0.6, 1.0}, then two packed bytes.
        let (count_at, packed_at) = (25, 26 + 12);
        let recoded = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut b = bytes.clone();
            edit(&mut b);
            assert_ne!(b, bytes);
            let (slot, end) = read_part(&b, 0).unwrap();
            assert_eq!(end, b.len());
            assert_eq!(&*slot.part, &bytes[..], "not written afresh");
        };
        // Pad bits set after the fifth element.
        recoded(&|b| b[packed_at + 1] |= 0b1100);
        // The done byte holds 2 rather than 1.
        recoded(&|b| *b.last_mut().unwrap() = 2);
        // A fourth palette entry nothing uses.
        recoded(&|b| {
            b[count_at] = 4;
            b.splice(packed_at..packed_at, 7.0f32.to_bits().to_le_bytes());
        });
        // Entries 1 and 2 swapped, and the indices with them.
        recoded(&|b| {
            let (p1, p2) = (count_at + 5, count_at + 9);
            for k in 0..4 {
                b.swap(p1 + k, p2 + k);
            }
            let swap = |byte: u8| {
                (0..4).fold(0u8, |acc, s| {
                    let idx = (byte >> (2 * s)) & 0b11;
                    acc | ([0, 2, 1, 3][idx as usize] << (2 * s))
                })
            };
            b[packed_at] = swap(b[packed_at]);
            b[packed_at + 1] = swap(b[packed_at + 1]);
        });
        // A fourth entry repeating the first, used by the last element.
        recoded(&|b| {
            b[count_at] = 4;
            b.splice(packed_at..packed_at, 0.0f32.to_bits().to_le_bytes());
            b[packed_at + 4 + 1] = 0b11;
        });
        // The state stored raw although it holds three values.
        recoded(&|b| {
            let mut raw = vec![TENSOR_RAW];
            for v in state.data() {
                raw.extend_from_slice(&v.to_le_bytes());
            }
            b.splice(24..packed_at + 2, raw);
        });
    }

    #[test]
    fn malformed_parts_are_rejected_with_the_decoders_messages() {
        let state = Tensor::from_vec(vec![0.0, 0.6, 0.6, 1.0, 0.0], [1, 5]);
        let next = Tensor::from_vec((0..6).map(|i| i as f32).collect(), [1, 6]);
        let (bytes, _) = part_of(&state, &next);
        let err = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut b = bytes.clone();
            edit(&mut b);
            read_part(&b, 0).unwrap_err()
        };
        assert_eq!(err(&|b| b[0] = 17), "implausible tensor rank 17");
        assert_eq!(err(&|b| b[16..24].copy_from_slice(&(1u64 << 29).to_le_bytes())), "implausible tensor size");
        assert_eq!(err(&|b| b[24] = 9), "unknown tensor encoding tag 9");
        assert_eq!(err(&|b| b[25] = 0), "bad palette size 0");
        assert_eq!(err(&|b| b[25] = 5), "bad palette size 5");
        assert_eq!(err(&|b| b[38] = 0b11 << 4), "palette index 3 out of range");
        // The next state is raw: a cut inside it names the first f32 cut.
        let next_at = 40 + 12;
        let cut = next_at + 24 + 1 + 4 * 3 + 2;
        assert_eq!(
            err(&|b| b.truncate(cut)),
            format!("pipeline blob truncated: wanted 4 bytes at offset {}, have 2", cut - 2)
        );
        assert_eq!(
            err(&|b| b.truncate(bytes.len() - 1)),
            format!("pipeline blob truncated: wanted 1 bytes at offset {}, have 0", bytes.len() - 1)
        );
        for keep in 0..bytes.len() {
            assert!(read_part(&bytes[..keep], 0).is_err(), "a {keep}-byte prefix read as a part");
        }
    }
}
