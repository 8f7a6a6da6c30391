//! The paper's five evaluation videos as scene presets.
//!
//! §5.1: "Experiments run on a subset of five types of videos: Street
//! traffic (vehicles), street traffic (pedestrians), mall surveillance (all
//! three querying for 'person'), airport runway querying for 'airplane',
//! and home video of pet in the park querying for 'dog'."
//!
//! Figure 2 / Table 1 name them v1 (park), v2 (street traffic), v3 (airport
//! runway) and v4 (mall surveillance). The presets encode the qualitative
//! properties the paper attributes to each:
//!
//! * **Airport runway** — large, unmistakable objects; the edge model
//!   detects with high confidence, so the optimal bandwidth utilization is
//!   near 0% and edge-only accuracy is already high (§5.2.1, §5.2.2).
//! * **Mall surveillance** — "objects are smaller and not as clear", so
//!   edge detections are poor and cloud validation improves accuracy
//!   dramatically (§5.2.3, Fig 5b).
//! * **Street traffic / park** — in between.

use crate::label::{classes, LabelClass};
use crate::scene::{Frame, SceneConfig, Video};

/// One of the paper's five video types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VideoPreset {
    /// v1 — home video of a pet in the park, querying "dog".
    ParkDog,
    /// v2 — street traffic, querying "car" (vehicles).
    StreetTraffic,
    /// v3 — airport runway, querying "airplane".
    AirportRunway,
    /// v4 — mall surveillance, querying "person".
    MallSurveillance,
    /// The fifth paper video — street traffic querying "person"
    /// (pedestrians); used by Fig 5(a).
    StreetPedestrians,
}

impl VideoPreset {
    /// All presets, in paper order v1..v4 plus the pedestrian video.
    pub const ALL: [VideoPreset; 5] = [
        VideoPreset::ParkDog,
        VideoPreset::StreetTraffic,
        VideoPreset::AirportRunway,
        VideoPreset::MallSurveillance,
        VideoPreset::StreetPedestrians,
    ];

    /// The four videos of Figure 2 / Table 1, in order v1..v4.
    pub const FIG2: [VideoPreset; 4] = [
        VideoPreset::ParkDog,
        VideoPreset::StreetTraffic,
        VideoPreset::AirportRunway,
        VideoPreset::MallSurveillance,
    ];

    /// The paper's short identifier for this video, when it has one.
    pub fn paper_id(&self) -> &'static str {
        match self {
            VideoPreset::ParkDog => "v1",
            VideoPreset::StreetTraffic => "v2",
            VideoPreset::AirportRunway => "v3",
            VideoPreset::MallSurveillance => "v4",
            VideoPreset::StreetPedestrians => "v5",
        }
    }

    /// Human-readable description.
    pub fn description(&self) -> &'static str {
        match self {
            VideoPreset::ParkDog => "pet in the park (dog)",
            VideoPreset::StreetTraffic => "street traffic (vehicles)",
            VideoPreset::AirportRunway => "airport runway (airplane)",
            VideoPreset::MallSurveillance => "mall surveillance (person)",
            VideoPreset::StreetPedestrians => "street traffic (pedestrians)",
        }
    }

    /// The query class for this video.
    pub fn query(&self) -> LabelClass {
        match self {
            VideoPreset::ParkDog => classes::dog(),
            VideoPreset::StreetTraffic => classes::car(),
            VideoPreset::AirportRunway => classes::airplane(),
            VideoPreset::MallSurveillance | VideoPreset::StreetPedestrians => classes::person(),
        }
    }

    /// The scene configuration for this preset.
    pub fn config(&self) -> SceneConfig {
        let base = SceneConfig::default();
        match self {
            VideoPreset::ParkDog => SceneConfig {
                name: "park (dog)".to_string(),
                classes: vec![(classes::dog(), 1.0), (classes::person(), 0.6)],
                query_class: classes::dog(),
                initial_objects: 2,
                spawn_rate: 0.06,
                mean_lifetime: 140.0,
                size_range: (0.06, 0.2),
                speed: 0.006,
                clarity_base: 0.55,
                clarity_spread: 0.18,
                ..base
            },
            VideoPreset::StreetTraffic => SceneConfig {
                name: "street traffic (vehicles)".to_string(),
                classes: vec![
                    (classes::car(), 1.0),
                    (classes::bus(), 0.25),
                    (classes::person(), 0.4),
                ],
                query_class: classes::car(),
                initial_objects: 4,
                spawn_rate: 0.25,
                mean_lifetime: 70.0,
                size_range: (0.05, 0.22),
                speed: 0.008,
                clarity_base: 0.58,
                clarity_spread: 0.16,
                ..base
            },
            VideoPreset::AirportRunway => SceneConfig {
                name: "airport runway (airplane)".to_string(),
                classes: vec![(classes::airplane(), 1.0)],
                query_class: classes::airplane(),
                initial_objects: 1,
                spawn_rate: 0.02,
                mean_lifetime: 220.0,
                size_range: (0.3, 0.55),
                speed: 0.003,
                clarity_base: 0.9,
                clarity_spread: 0.05,
                ..base
            },
            VideoPreset::MallSurveillance => SceneConfig {
                name: "mall surveillance (person)".to_string(),
                classes: vec![(classes::person(), 1.0)],
                query_class: classes::person(),
                initial_objects: 6,
                spawn_rate: 0.35,
                mean_lifetime: 60.0,
                size_range: (0.03, 0.09),
                speed: 0.005,
                clarity_base: 0.38,
                clarity_spread: 0.14,
                ..base
            },
            VideoPreset::StreetPedestrians => SceneConfig {
                name: "street traffic (pedestrians)".to_string(),
                classes: vec![(classes::person(), 1.0), (classes::car(), 0.5)],
                query_class: classes::person(),
                initial_objects: 4,
                spawn_rate: 0.3,
                mean_lifetime: 80.0,
                size_range: (0.04, 0.12),
                speed: 0.006,
                clarity_base: 0.5,
                clarity_spread: 0.16,
                ..base
            },
        }
    }

    /// Generate the video for this preset with a number of frames and seed.
    pub fn generate(&self, num_frames: u64, seed: u64) -> Video {
        Video::generate(self.scene(num_frames), seed)
    }

    /// The frames of [`generate`](Self::generate)`(num_frames, seed)`, made
    /// one at a time: the stream holds the video's tracks and no frame it
    /// has yielded.
    pub fn stream(&self, num_frames: u64, seed: u64) -> impl Iterator<Item = Frame> {
        Video::stream(self.scene(num_frames), seed)
    }

    fn scene(&self, num_frames: u64) -> SceneConfig {
        SceneConfig {
            num_frames,
            ..self.config()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_generate() {
        for p in VideoPreset::ALL {
            let v = p.generate(60, 42);
            assert_eq!(v.len(), 60);
            assert!(!v.tracks.is_empty(), "{p:?} has no objects");
        }
    }

    #[test]
    fn query_class_matches_scene_config() {
        for p in VideoPreset::ALL {
            assert_eq!(p.config().query_class, p.query());
        }
    }

    #[test]
    fn paper_ids_are_v1_to_v4_for_fig2() {
        let ids: Vec<&str> = VideoPreset::FIG2.iter().map(|p| p.paper_id()).collect();
        assert_eq!(ids, vec!["v1", "v2", "v3", "v4"]);
    }

    #[test]
    fn airport_is_clearest_mall_is_hardest() {
        let airport = VideoPreset::AirportRunway.config().clarity_base;
        let mall = VideoPreset::MallSurveillance.config().clarity_base;
        assert!(airport > 0.8);
        assert!(mall < 0.45);
        for p in VideoPreset::ALL {
            let c = p.config().clarity_base;
            assert!(c >= mall - 1e-9, "{p:?} clearer than mall");
            assert!(c <= airport + 1e-9, "{p:?} darker than airport");
        }
    }

    #[test]
    fn airport_objects_are_large_mall_objects_small() {
        let airport = VideoPreset::AirportRunway.config();
        let mall = VideoPreset::MallSurveillance.config();
        assert!(airport.size_range.0 > mall.size_range.1);
    }

    #[test]
    fn query_objects_exist_in_every_preset() {
        for p in VideoPreset::ALL {
            let v = p.generate(120, 9);
            assert!(v.query_instance_count() > 0, "{p:?} has no query objects");
        }
    }

    #[test]
    fn presets_are_deterministic() {
        let a = VideoPreset::StreetTraffic.generate(50, 5);
        let b = VideoPreset::StreetTraffic.generate(50, 5);
        assert_eq!(a.tracks.len(), b.tracks.len());
    }
}
