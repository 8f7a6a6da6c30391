//! Scene generation: turning a [`SceneConfig`] into a deterministic [`Video`].

use croesus_sim::DetRng;

use crate::bbox::BoundingBox;
use crate::label::LabelClass;
use crate::object::{GroundTruthObject, ObjectId, TrackedObject};

/// Parameters describing a synthetic scene.
///
/// The defaults produce a moderate street-like scene; the paper's five
/// videos are provided as presets in [`crate::preset`].
#[derive(Clone, Debug)]
pub struct SceneConfig {
    /// Human-readable scene name (used in reports).
    pub name: String,
    /// Number of frames to generate.
    pub num_frames: u64,
    /// Frames per second (for timestamps only).
    pub fps: f64,
    /// Encoded payload size of one frame in bytes (drives network cost).
    pub frame_bytes: u64,
    /// Classes present in the scene with relative spawn weights.
    pub classes: Vec<(LabelClass, f64)>,
    /// The object query `O` of the optimization formulation (§3.4) — the
    /// class the application is looking for.
    pub query_class: LabelClass,
    /// Objects present at frame 0.
    pub initial_objects: usize,
    /// Expected newly-spawned objects per frame.
    pub spawn_rate: f64,
    /// Mean object lifetime, in frames (exponentially distributed).
    pub mean_lifetime: f64,
    /// Range of object box extents (width/height are drawn independently).
    pub size_range: (f64, f64),
    /// Magnitude of per-frame motion (fraction of the frame).
    pub speed: f64,
    /// Base latent clarity of objects in this scene, `[0, 1]`.
    pub clarity_base: f64,
    /// Standard deviation of per-object clarity noise.
    pub clarity_spread: f64,
}

impl Default for SceneConfig {
    fn default() -> Self {
        SceneConfig {
            name: "default".to_string(),
            num_frames: 300,
            fps: 30.0,
            frame_bytes: 150_000,
            classes: vec![(LabelClass::new("car"), 1.0)],
            query_class: LabelClass::new("car"),
            initial_objects: 3,
            spawn_rate: 0.15,
            mean_lifetime: 90.0,
            size_range: (0.08, 0.25),
            speed: 0.004,
            clarity_base: 0.6,
            clarity_spread: 0.15,
        }
    }
}

impl SceneConfig {
    /// Total weight across the class mix; used for sampling.
    fn total_class_weight(&self) -> f64 {
        self.classes.iter().map(|(_, w)| *w).sum()
    }

    /// Sample a class from the mix.
    fn sample_class(&self, rng: &mut DetRng) -> LabelClass {
        let total = self.total_class_weight();
        assert!(total > 0.0, "scene has no classes to sample");
        let mut pick = rng.uniform() * total;
        for (class, w) in &self.classes {
            pick -= w;
            if pick <= 0.0 {
                return class.clone();
            }
        }
        self.classes
            .last()
            .expect("classes non-empty (total weight > 0)")
            .0
            .clone()
    }
}

/// One frame of a video: index, timestamp, ground-truth objects, payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Zero-based frame index.
    pub index: u64,
    /// Seconds since the start of the video.
    pub timestamp_secs: f64,
    /// Objects visible in this frame.
    pub objects: Vec<GroundTruthObject>,
    /// Encoded payload size in bytes.
    pub bytes: u64,
}

/// A generated video: a deterministic function of `(SceneConfig, seed)`.
#[derive(Clone, Debug)]
pub struct Video {
    /// The configuration that produced this video.
    pub config: SceneConfig,
    /// The seed that produced this video.
    pub seed: u64,
    /// The tracked objects behind the frames.
    pub tracks: Vec<TrackedObject>,
    frames: Vec<Frame>,
}

impl Video {
    /// Generate a video from a configuration and seed.
    pub fn generate(config: SceneConfig, seed: u64) -> Video {
        let tracks = Video::tracks(&config, seed);
        let frames = (0..config.num_frames)
            .map(|index| Video::make_frame(&config, &tracks, index))
            .collect();
        Video {
            config,
            seed,
            tracks,
            frames,
        }
    }

    /// The track pass: every object of the scene, in spawn order.
    fn tracks(config: &SceneConfig, seed: u64) -> Vec<TrackedObject> {
        assert!(config.num_frames > 0, "video must have at least one frame");
        assert!(!config.classes.is_empty(), "scene needs at least one class");
        let mut rng = DetRng::new(seed).fork_named("scene");
        let mut tracks: Vec<TrackedObject> = Vec::new();
        let mut next_id: u64 = 0;

        let mut spawn = |rng: &mut DetRng, frame: u64, tracks: &mut Vec<TrackedObject>| {
            let class = config.sample_class(rng);
            let w = rng.uniform_range(config.size_range.0, config.size_range.1);
            let h = rng.uniform_range(config.size_range.0, config.size_range.1);
            let cx = rng.uniform_range(0.1, 0.9);
            let cy = rng.uniform_range(0.1, 0.9);
            let angle = rng.uniform() * std::f64::consts::TAU;
            let speed = config.speed * rng.uniform_range(0.5, 1.5);
            // Lifetime ~ exponential with the configured mean, at least 5 frames.
            let u: f64 = rng.uniform().max(f64::MIN_POSITIVE);
            let lifetime = (-u.ln() * config.mean_lifetime).max(5.0) as u64;
            // Larger objects are clearer; small distant ones are harder.
            let size_norm = ((w + h) / 2.0 - config.size_range.0)
                / (config.size_range.1 - config.size_range.0).max(1e-9);
            let clarity = (config.clarity_base
                + 0.15 * (size_norm - 0.5)
                + config.clarity_spread * rng.standard_normal())
            .clamp(0.02, 0.99);
            tracks.push(TrackedObject {
                id: ObjectId(next_id),
                class,
                initial_bbox: BoundingBox::centered(cx, cy, w, h),
                velocity: (angle.cos() * speed, angle.sin() * speed),
                spawn_frame: frame,
                despawn_frame: (frame + lifetime).min(config.num_frames),
                clarity,
            });
            next_id += 1;
        };

        for _ in 0..config.initial_objects {
            spawn(&mut rng, 0, &mut tracks);
        }
        for frame in 1..config.num_frames {
            // Bernoulli-thinned spawn process with the configured rate.
            let mut budget = config.spawn_rate;
            while budget > 0.0 {
                let p = budget.min(1.0);
                if rng.bernoulli(p) {
                    spawn(&mut rng, frame, &mut tracks);
                }
                budget -= 1.0;
            }
        }
        tracks
    }

    /// Frame `index`: every track visible in it, in track order. A frame
    /// is a pure function of the tracks; since they are in spawn order,
    /// the scan stops at the first track not yet spawned.
    fn make_frame(config: &SceneConfig, tracks: &[TrackedObject], index: u64) -> Frame {
        let objects: Vec<GroundTruthObject> = tracks
            .iter()
            .take_while(|t| t.spawn_frame <= index)
            .filter(|t| t.visible_at(index))
            .map(|t| t.at(index))
            .collect();
        Frame {
            index,
            timestamp_secs: index as f64 / config.fps,
            objects,
            bytes: config.frame_bytes,
        }
    }

    /// The frames of [`Video::generate`]`(config, seed)`, made one at a time:
    /// the stream holds the tracks and no frame it has yielded.
    pub(crate) fn stream(config: SceneConfig, seed: u64) -> impl Iterator<Item = Frame> {
        let tracks = Video::tracks(&config, seed);
        (0..config.num_frames).map(move |index| Video::make_frame(&config, &tracks, index))
    }

    /// All frames, in order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// One frame by index.
    pub fn frame(&self, index: u64) -> &Frame {
        &self.frames[index as usize]
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the video has no frames (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The query class of this video.
    pub fn query_class(&self) -> &LabelClass {
        &self.config.query_class
    }
}

#[cfg(test)]
impl Video {
    /// Total ground-truth instances of the query class over the video.
    pub(crate) fn query_instance_count(&self) -> usize {
        let q = self.query_class().clone();
        self.frames.iter().map(|f| f.objects_of(&q).count()).sum()
    }
}

#[cfg(test)]
impl Frame {
    /// Ground-truth objects of the given class.
    pub(crate) fn objects_of<'a>(
        &'a self,
        class: &'a LabelClass,
    ) -> impl Iterator<Item = &'a GroundTruthObject> + 'a {
        self.objects.iter().filter(move |o| &o.class == class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Video::generate(SceneConfig::default(), 7);
        let b = Video::generate(SceneConfig::default(), 7);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.tracks.len(), b.tracks.len());
        for (fa, fb) in a.frames().iter().zip(b.frames()) {
            assert_eq!(fa.objects.len(), fb.objects.len());
            for (oa, ob) in fa.objects.iter().zip(&fb.objects) {
                assert_eq!(oa.id, ob.id);
                assert_eq!(oa.bbox, ob.bbox);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Video::generate(SceneConfig::default(), 1);
        let b = Video::generate(SceneConfig::default(), 2);
        let same_tracks = a.tracks.len() == b.tracks.len()
            && a.tracks
                .iter()
                .zip(&b.tracks)
                .all(|(x, y)| x.initial_bbox == y.initial_bbox);
        assert!(!same_tracks);
    }

    #[test]
    fn frame_indices_and_timestamps() {
        let v = Video::generate(SceneConfig::default(), 3);
        for (i, f) in v.frames().iter().enumerate() {
            assert_eq!(f.index as usize, i);
            assert!((f.timestamp_secs - i as f64 / 30.0).abs() < 1e-9);
            assert_eq!(f.bytes, 150_000);
        }
    }

    #[test]
    fn objects_stay_in_frame() {
        let v = Video::generate(SceneConfig::default(), 5);
        for f in v.frames() {
            for o in &f.objects {
                assert!(o.bbox.x >= 0.0 && o.bbox.y >= 0.0);
                assert!(o.bbox.x + o.bbox.w <= 1.0 + 1e-9);
                assert!(o.bbox.y + o.bbox.h <= 1.0 + 1e-9);
                assert!(!o.bbox.is_empty());
            }
        }
    }

    #[test]
    fn clarity_is_bounded() {
        let v = Video::generate(SceneConfig::default(), 11);
        for t in &v.tracks {
            assert!((0.0..=1.0).contains(&t.clarity));
        }
    }

    #[test]
    fn initial_objects_appear_in_frame_zero() {
        let cfg = SceneConfig {
            initial_objects: 5,
            ..SceneConfig::default()
        };
        let v = Video::generate(cfg, 13);
        assert!(
            v.frame(0).objects.len() >= 4,
            "most initial objects visible"
        );
    }

    #[test]
    fn spawn_rate_scales_population() {
        let sparse = Video::generate(
            SceneConfig {
                spawn_rate: 0.02,
                ..SceneConfig::default()
            },
            17,
        );
        let dense = Video::generate(
            SceneConfig {
                spawn_rate: 0.8,
                ..SceneConfig::default()
            },
            17,
        );
        assert!(dense.tracks.len() > sparse.tracks.len() * 3);
    }

    #[test]
    fn class_mix_is_respected() {
        let cfg = SceneConfig {
            classes: vec![
                (LabelClass::new("car"), 9.0),
                (LabelClass::new("person"), 1.0),
            ],
            spawn_rate: 1.0,
            num_frames: 600,
            ..SceneConfig::default()
        };
        let v = Video::generate(cfg, 19);
        let cars = v
            .tracks
            .iter()
            .filter(|t| t.class == LabelClass::new("car"))
            .count();
        let people = v.tracks.len() - cars;
        assert!(cars > people * 4, "cars {cars} people {people}");
    }

    #[test]
    fn query_instance_count_counts_only_query_class() {
        let cfg = SceneConfig {
            classes: vec![
                (LabelClass::new("car"), 1.0),
                (LabelClass::new("person"), 1.0),
            ],
            query_class: LabelClass::new("person"),
            ..SceneConfig::default()
        };
        let v = Video::generate(cfg, 23);
        let q = LabelClass::new("person");
        let manual: usize = v.frames().iter().map(|f| f.objects_of(&q).count()).sum();
        assert_eq!(v.query_instance_count(), manual);
    }

    #[test]
    fn a_stream_yields_the_generated_frames() {
        for preset in crate::VideoPreset::ALL {
            for seed in [3, 29] {
                let video = preset.generate(150, seed);
                let streamed: Vec<Frame> = preset.stream(150, seed).collect();
                assert_eq!(streamed, video.frames(), "{preset:?} seed {seed}");
            }
        }
    }

    #[test]
    fn a_shorter_video_is_a_prefix_of_a_longer_one() {
        for preset in crate::VideoPreset::ALL {
            for seed in [3, 29] {
                let short = preset.generate(90, seed);
                let long = preset.generate(240, seed);
                assert_eq!(
                    short.frames(),
                    &long.frames()[..90],
                    "{preset:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        Video::generate(
            SceneConfig {
                num_frames: 0,
                ..SceneConfig::default()
            },
            1,
        );
    }
}
