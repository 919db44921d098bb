//! Byte codec for workload pipeline blobs.
//!
//! Resume checkpoints carry an opaque per-workload blob
//! ([`crate::workload::Workload::export_pipeline`]): corpus RNG streams
//! for the dataset-driven models, plus the full replay buffer and
//! environment state for `deepq`. The encoding is little-endian and
//! self-delimiting; every decode is bounds-checked and returns a
//! descriptive `Err` instead of panicking, because blobs arrive from
//! disk and may be stale or corrupt.
//!
//! Tensors are stored either raw (f32 LE) or, when they hold at most
//! four distinct values, as a 2-bit palette. That matters for `deepq`:
//! replay-buffer observations are rendered game frames holding exactly
//! {0.0, 0.6, 1.0}, so palette coding shrinks the dominant payload 16x
//! and keeps full-buffer snapshots practical.

use fathom_tensor::{Shape, Tensor};

/// Encoding for one tensor payload.
const TENSOR_RAW: u8 = 0;
const TENSOR_PALETTE: u8 = 1;

/// Builds a pipeline blob. The constructor stamps the workload name so
/// a blob can never be imported into the wrong model.
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new(workload: &str) -> Self {
        let mut e = Enc::part();
        e.bytes(workload.as_bytes());
        e
    }

    /// A later part of a blob that [`Enc::new`] began: no name stamp.
    /// The parts' concatenation decodes as one blob.
    pub(crate) fn part() -> Self {
        Enc { buf: Vec::new() }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn rng(&mut self, state: [u64; 4]) {
        for word in state {
            self.u64(word);
        }
    }

    /// Raw f32 slice (frames, rewards) without shape information.
    pub(crate) fn f32s(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f32(x);
        }
    }

    /// Shape-carrying tensor, palette-compressed when it holds at most
    /// four distinct values. The round trip is bitwise: palette entries
    /// are the original f32 bit patterns, in first-occurrence order.
    ///
    /// One pass: the palette grows and the 2-bit indices are packed as
    /// the data is read; a fifth distinct value abandons the packing and
    /// the tensor is written raw.
    pub(crate) fn tensor(&mut self, t: &Tensor) {
        self.u64(t.shape().rank() as u64);
        for &d in t.shape().dims() {
            self.u64(d as u64);
        }
        match palette_pack(t.data()) {
            Some((palette, packed)) => {
                self.buf.push(TENSOR_PALETTE);
                self.buf.push(palette.len() as u8);
                for &bits in &palette {
                    self.buf.extend_from_slice(&bits.to_le_bytes());
                }
                self.buf.extend_from_slice(&packed);
            }
            None => {
                self.buf.push(TENSOR_RAW);
                for &v in t.data() {
                    self.f32(v);
                }
            }
        }
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// The palette (distinct bit patterns in first-occurrence order) and the
/// 2-bit indices of `data`, four to a byte, low bits first; `None` when
/// `data` is empty or holds a fifth distinct value.
fn palette_pack(data: &[f32]) -> Option<(Vec<u32>, Vec<u8>)> {
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

/// Reads a pipeline blob written by [`Enc`].
#[derive(Debug)]
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Opens a blob, validating the leading workload-name stamp.
    pub(crate) fn new(workload: &str, blob: &'a [u8]) -> Result<Self, String> {
        let mut d = Dec { buf: blob, pos: 0 };
        let name = d.raw_bytes()?;
        if name != workload.as_bytes() {
            return Err(format!(
                "pipeline blob belongs to '{}', not '{workload}'",
                String::from_utf8_lossy(name)
            ));
        }
        Ok(d)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
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

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub(crate) fn f32(&mut self) -> Result<f32, String> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, String> {
        Ok(self.take(1)?[0] != 0)
    }

    fn raw_bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    pub(crate) fn rng(&mut self) -> Result<[u64; 4], String> {
        Ok([self.u64()?, self.u64()?, self.u64()?, self.u64()?])
    }

    pub(crate) fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let len = self.u64()? as usize;
        if len > (1 << 28) {
            return Err(format!("implausible f32 slice length {len}"));
        }
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(self.f32()?);
        }
        Ok(out)
    }

    pub(crate) fn tensor(&mut self) -> Result<Tensor, String> {
        let rank = self.u64()? as usize;
        if rank > 16 {
            return Err(format!("implausible tensor rank {rank}"));
        }
        let mut dims = Vec::with_capacity(rank);
        let mut total: u64 = 1;
        for _ in 0..rank {
            let d = self.u64()?;
            total = total.saturating_mul(d);
            if total > (1 << 28) {
                return Err("implausible tensor size".into());
            }
            dims.push(d as usize);
        }
        let shape = Shape::new(dims);
        let total = shape.num_elements();
        let tag = self.take(1)?[0];
        let data = match tag {
            TENSOR_RAW => {
                let mut data = Vec::with_capacity(total.min(1 << 16));
                for _ in 0..total {
                    data.push(self.f32()?);
                }
                data
            }
            TENSOR_PALETTE => {
                let count = self.take(1)?[0] as usize;
                if count == 0 || count > 4 {
                    return Err(format!("bad palette size {count}"));
                }
                let mut palette = Vec::with_capacity(count);
                for _ in 0..count {
                    palette.push(f32::from_bits(u32::from_le_bytes(
                        self.take(4)?.try_into().expect("4 bytes"),
                    )));
                }
                let packed = self.take(total.div_ceil(4))?;
                let mut data = Vec::with_capacity(total);
                for i in 0..total {
                    let idx = ((packed[i / 4] >> ((i % 4) * 2)) & 0b11) as usize;
                    if idx >= palette.len() {
                        return Err(format!("palette index {idx} out of range"));
                    }
                    data.push(palette[idx]);
                }
                data
            }
            other => return Err(format!("unknown tensor encoding tag {other}")),
        };
        Ok(Tensor::from_vec(data, shape))
    }

    /// Asserts the blob was consumed exactly.
    pub(crate) fn done(self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "pipeline blob has {} trailing bytes",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two-pass palette encoder [`Enc::tensor`] replaced: scan for
    /// the palette, then search it per element. Kept as the oracle the
    /// one-pass encoder must match byte for byte.
    fn two_pass_tensor(t: &Tensor) -> Vec<u8> {
        let mut e = Enc::part();
        e.u64(t.shape().rank() as u64);
        for &d in t.shape().dims() {
            e.u64(d as u64);
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
            e.buf.push(TENSOR_PALETTE);
            e.buf.push(palette.len() as u8);
            for &bits in &palette {
                e.buf.extend_from_slice(&bits.to_le_bytes());
            }
            let mut packed = 0u8;
            let mut filled = 0;
            for &v in t.data() {
                let idx = palette.iter().position(|&p| p == v.to_bits()).unwrap() as u8;
                packed |= idx << (filled * 2);
                filled += 1;
                if filled == 4 {
                    e.buf.push(packed);
                    packed = 0;
                    filled = 0;
                }
            }
            if filled > 0 {
                e.buf.push(packed);
            }
        } else {
            e.buf.push(TENSOR_RAW);
            for &v in t.data() {
                e.f32(v);
            }
        }
        e.finish()
    }

    /// Encodes `bits` with both encoders, asserts equal bytes, and
    /// asserts the bitwise round trip.
    fn assert_matches_oracle(bits: &[u32]) {
        let t = Tensor::from_vec(bits.iter().map(|&b| f32::from_bits(b)).collect(), [bits.len()]);
        let mut e = Enc::part();
        e.tensor(&t);
        let one_pass = e.finish();
        assert_eq!(one_pass, two_pass_tensor(&t), "bits {bits:08x?}");
        let mut blob = Enc::new("t").finish();
        blob.extend_from_slice(&one_pass);
        let mut d = Dec::new("t", &blob).unwrap();
        let back: Vec<u32> = d.tensor().unwrap().data().iter().map(|v| v.to_bits()).collect();
        d.done().unwrap();
        assert_eq!(back, bits);
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
    fn scalar_round_trip() {
        let mut e = Enc::new("test");
        e.u64(42);
        e.f32(-1.5);
        e.bool(true);
        e.rng([1, 2, 3, u64::MAX]);
        e.f32s(&[0.25, 0.5]);
        let blob = e.finish();
        let mut d = Dec::new("test", &blob).unwrap();
        assert_eq!(d.u64().unwrap(), 42);
        assert_eq!(d.f32().unwrap(), -1.5);
        assert!(d.bool().unwrap());
        assert_eq!(d.rng().unwrap(), [1, 2, 3, u64::MAX]);
        assert_eq!(d.f32s().unwrap(), vec![0.25, 0.5]);
        d.done().unwrap();
    }

    #[test]
    fn wrong_workload_is_rejected() {
        let blob = Enc::new("autoenc").finish();
        let err = Dec::new("deepq", &blob).unwrap_err();
        assert!(err.contains("'autoenc'"), "got: {err}");
    }

    #[test]
    fn tensor_palette_round_trip_is_bitwise() {
        // Frame-like data: exactly the three values game renders use.
        let data: Vec<f32> = (0..777).map(|i| [0.0, 0.6, 1.0][i % 3]).collect();
        let t = Tensor::from_vec(data, [777]);
        let mut e = Enc::new("t");
        e.tensor(&t);
        let blob = e.finish();
        // Palette coding: ~2 bits per element plus headers, far below
        // the 4-byte raw encoding.
        assert!(blob.len() < 777, "palette blob is {} bytes", blob.len());
        let mut d = Dec::new("t", &blob).unwrap();
        let back = d.tensor().unwrap();
        d.done().unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn tensor_raw_round_trip_is_bitwise() {
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.37 - 5.0).collect();
        let t = Tensor::from_vec(data, [4, 25]);
        let mut e = Enc::new("t");
        e.tensor(&t);
        let blob = e.finish();
        let mut d = Dec::new("t", &blob).unwrap();
        assert_eq!(d.tensor().unwrap(), t);
        d.done().unwrap();
    }

    #[test]
    fn truncated_blobs_error_not_panic() {
        let mut e = Enc::new("t");
        e.u64(7);
        e.f32s(&[1.0; 32]);
        let blob = e.finish();
        for keep in 0..blob.len() {
            let short = &blob[..keep];
            if let Ok(mut d) = Dec::new("t", short) {
                let _ = d.u64().and_then(|_| d.f32s().map(|_| ()));
            }
        }
    }

    #[test]
    fn nan_payloads_round_trip() {
        // NaN != NaN, so compare bit patterns: the codec must preserve
        // them (palette matching is by bits, not by value).
        let t = Tensor::from_vec(vec![f32::NAN, 1.0, f32::NAN, 1.0], [4]);
        let mut e = Enc::new("t");
        e.tensor(&t);
        let blob = e.finish();
        let mut d = Dec::new("t", &blob).unwrap();
        let back = d.tensor().unwrap();
        let bits: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
        let back_bits: Vec<u32> = back.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, back_bits);
    }
}
