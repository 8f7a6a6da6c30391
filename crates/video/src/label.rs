//! Label classes.
//!
//! A label class is the name a detection model assigns to an object
//! ("person", "car", ...). Classes are interned behind an `Arc<str>` so they
//! are cheap to clone and hash — detections are produced per frame at video
//! rate and flow through the whole pipeline.

use std::fmt;
use std::sync::Arc;

/// An interned object-class name.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelClass(Arc<str>);

impl LabelClass {
    /// Create a class from a name.
    pub fn new(name: &str) -> Self {
        LabelClass(Arc::from(name))
    }

    /// The class name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl From<&str> for LabelClass {
    fn from(name: &str) -> Self {
        LabelClass::new(name)
    }
}

impl From<String> for LabelClass {
    fn from(name: String) -> Self {
        LabelClass(Arc::from(name.as_str()))
    }
}

impl fmt::Debug for LabelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LabelClass({})", self.0)
    }
}

impl fmt::Display for LabelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Common classes used by the paper's workloads, provided for convenience.
pub(crate) mod classes {
    use super::LabelClass;

    /// "person" — mall surveillance / pedestrian queries.
    pub(crate) fn person() -> LabelClass {
        LabelClass::new("person")
    }
    /// "car" — street traffic query.
    pub(crate) fn car() -> LabelClass {
        LabelClass::new("car")
    }
    /// "bus" — the optimization-formulation example object.
    pub(crate) fn bus() -> LabelClass {
        LabelClass::new("bus")
    }
    /// "airplane" — airport runway query.
    pub(crate) fn airplane() -> LabelClass {
        LabelClass::new("airplane")
    }
    /// "dog" — pet-in-the-park query.
    pub(crate) fn dog() -> LabelClass {
        LabelClass::new("dog")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_by_name() {
        assert_eq!(LabelClass::new("person"), LabelClass::from("person"));
        assert_ne!(LabelClass::new("person"), LabelClass::new("car"));
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let a = LabelClass::new("dog");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.name(), "dog");
    }

    #[test]
    fn display_and_debug() {
        let c = LabelClass::new("airplane");
        assert_eq!(format!("{c}"), "airplane");
        assert_eq!(format!("{c:?}"), "LabelClass(airplane)");
    }

    #[test]
    fn usable_as_hash_key() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(LabelClass::new("car"), 1);
        m.insert(LabelClass::new("car"), 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m[&LabelClass::new("car")], 2);
    }

    #[test]
    fn from_string() {
        let c: LabelClass = String::from("bus").into();
        assert_eq!(c, classes::bus());
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(LabelClass::new("airplane") < LabelClass::new("bus"));
    }
}
