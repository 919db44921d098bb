//! Synthetic spectrogram utterances standing in for the TIMIT corpus.
//!
//! Each phoneme class has a characteristic filterbank energy profile; an
//! utterance is a phoneme sequence rendered as a series of noisy frames
//! (several frames per phoneme, with random duration). This gives CTC
//! training the same shape of problem as real speech: unsegmented frame
//! sequences paired with shorter label sequences.

use fathom_tensor::{Rng, Tensor};

/// Synthetic speech corpus: phoneme-conditioned filterbank frames.
#[derive(Debug, Clone)]
pub struct SpeechCorpus {
    phonemes: usize,
    features: usize,
    profiles: Vec<Vec<f32>>,
    rng: Rng,
}

/// One utterance: frames and their (unaligned) phoneme labels.
#[derive(Debug, Clone)]
pub struct Utterance {
    /// Frame features, `frames[t][f]`.
    pub frames: Vec<Vec<f32>>,
    /// Phoneme label sequence (shorter than the frame sequence).
    pub labels: Vec<usize>,
}

impl SpeechCorpus {
    /// Creates a corpus with `phonemes` classes over `features`-bin
    /// filterbank frames. Class 0 is reserved for the CTC blank and never
    /// appears in labels.
    ///
    /// # Panics
    ///
    /// Panics if `phonemes < 2` or `features == 0`.
    pub fn new(phonemes: usize, features: usize, seed: u64) -> Self {
        assert!(phonemes >= 2, "need at least one phoneme plus the blank");
        assert!(features > 0, "features must be positive");
        let mut rng = Rng::seeded(seed ^ 0xA5A5_A5A5);
        // A fixed random energy profile per phoneme.
        let profiles = (0..phonemes)
            .map(|_| (0..features).map(|_| rng.normal()).collect())
            .collect();
        SpeechCorpus { phonemes, features, profiles, rng: Rng::seeded(seed) }
    }

    /// The stream's RNG state, for checkpointing the pipeline cursor.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores a stream captured with [`SpeechCorpus::rng_state`];
    /// subsequent batches continue exactly where the capture left off.
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = Rng::from_state(state);
    }

    /// Number of phoneme classes, including the blank at index 0.
    pub fn phonemes(&self) -> usize {
        self.phonemes
    }

    /// Filterbank bins per frame.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Generates an utterance of `label_len` phonemes, each lasting 1–3
    /// frames.
    pub fn utterance(&mut self, label_len: usize) -> Utterance {
        let mut frames = Vec::new();
        let mut labels = Vec::with_capacity(label_len);
        for _ in 0..label_len {
            let p = 1 + self.rng.below(self.phonemes - 1); // skip blank
            labels.push(p);
            let duration = 1 + self.rng.below(3);
            for _ in 0..duration {
                let frame: Vec<f32> = self.profiles[p]
                    .iter()
                    .map(|&v| v + 0.3 * self.rng.normal())
                    .collect();
                frames.push(frame);
            }
        }
        Utterance { frames, labels }
    }

    /// Generates a CTC-ready minibatch:
    /// `(frames [time, batch, features], labels [batch, max_label])` with
    /// labels padded by `-1`. All items share `label_len` phonemes; frame
    /// counts vary per item and short items are padded with silence
    /// (zeros) at the end.
    pub fn batch(&mut self, batch: usize, label_len: usize) -> (Tensor, Tensor) {
        let utterances: Vec<Utterance> = (0..batch).map(|_| self.utterance(label_len)).collect();
        let t_max = utterances.iter().map(|u| u.frames.len()).max().unwrap_or(1);
        let mut frames = Tensor::zeros([t_max, batch, self.features]);
        let mut labels = Tensor::filled([batch, label_len], -1.0);
        let (dst, label_dst) = (frames.data_mut(), labels.data_mut());
        for (b, u) in utterances.iter().enumerate() {
            for (t, frame) in u.frames.iter().enumerate() {
                let at = (t * batch + b) * self.features;
                dst[at..at + frame.len()].copy_from_slice(frame);
            }
            for (l, &p) in u.labels.iter().enumerate() {
                label_dst[b * label_len + l] = p as f32;
            }
        }
        (frames, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utterance_has_more_frames_than_labels() {
        let mut c = SpeechCorpus::new(10, 13, 1);
        let u = c.utterance(5);
        assert_eq!(u.labels.len(), 5);
        assert!(u.frames.len() >= 5, "each phoneme emits at least one frame");
        assert!(u.frames.len() <= 15);
    }

    #[test]
    fn labels_never_use_blank() {
        let mut c = SpeechCorpus::new(8, 4, 2);
        for _ in 0..20 {
            let u = c.utterance(6);
            assert!(u.labels.iter().all(|&l| l != 0 && l < 8));
        }
    }

    #[test]
    fn frames_carry_phoneme_signal() {
        // Frames of the same phoneme must be closer to its profile than to
        // other profiles, on average.
        let mut c = SpeechCorpus::new(6, 16, 3);
        let profiles = c.profiles.clone();
        let u = c.utterance(1);
        let p = u.labels[0];
        let dist = |frame: &[f32], profile: &[f32]| -> f32 {
            frame.iter().zip(profile).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        let own: f32 = u.frames.iter().map(|f| dist(f, &profiles[p])).sum();
        for (q, prof) in profiles.iter().enumerate() {
            if q != p && q != 0 {
                let other: f32 = u.frames.iter().map(|f| dist(f, prof)).sum();
                assert!(own < other, "frames closer to phoneme {q} than own {p}");
            }
        }
    }

    #[test]
    fn batch_shapes_and_padding() {
        let mut c = SpeechCorpus::new(10, 13, 4);
        let (frames, labels) = c.batch(3, 4);
        assert_eq!(frames.shape().dim(1), 3);
        assert_eq!(frames.shape().dim(2), 13);
        assert_eq!(labels.shape().dims(), &[3, 4]);
        for &l in labels.data() {
            assert!(l == -1.0 || (1.0..10.0).contains(&l));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SpeechCorpus::new(10, 8, 7);
        let mut b = SpeechCorpus::new(10, 8, 7);
        let (fa, la) = a.batch(2, 3);
        let (fb, lb) = b.batch(2, 3);
        assert_eq!(fa, fb);
        assert_eq!(la, lb);
    }
}
