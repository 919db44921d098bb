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
//! `deepq`'s replay transitions, the bulk of its blob, are not encoded
//! here: the replay buffer holds each one in its encoded form already
//! (palette-coded frames; see `fathom_ale::ReplayBuffer::part`), a
//! snapshot shares those parts, and an import hands their bytes to
//! `fathom_ale::ReplayBuffer::import` through [`Dec::external`].

/// Builds a pipeline blob. The constructor stamps the workload name so
/// a blob can never be imported into the wrong model.
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new(workload: &str) -> Self {
        let mut e = Enc { buf: Vec::new() };
        e.bytes(workload.as_bytes());
        e
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
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

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
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

    /// Hands the blob and the read position to `read`, a decoder kept
    /// outside this codec, and moves past what it consumed: `read`
    /// returns its value and the offset it stopped at.
    pub(crate) fn external<T>(
        &mut self,
        read: impl FnOnce(&'a [u8], usize) -> Result<(T, usize), String>,
    ) -> Result<T, String> {
        let (value, end) = read(self.buf, self.pos)?;
        self.pos = end;
        Ok(value)
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

    #[test]
    fn scalar_round_trip() {
        let mut e = Enc::new("test");
        e.u64(42);
        e.f32(-1.5);
        e.rng([1, 2, 3, u64::MAX]);
        e.f32s(&[0.25, 0.5]);
        let blob = e.finish();
        let mut d = Dec::new("test", &blob).unwrap();
        assert_eq!(d.u64().unwrap(), 42);
        assert_eq!(d.f32().unwrap(), -1.5);
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
}
