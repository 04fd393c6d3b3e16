//! Error types for shape-checked tensor operations.

use std::error::Error;
use std::fmt;

/// Error returned when the shapes of two operands are incompatible.
///
/// # Examples
///
/// ```
/// use evfad_tensor::ShapeError;
///
/// let err = ShapeError::new("solve", (2, 3), (4, 5));
/// assert!(err.to_string().contains("2x3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    op: &'static str,
    lhs: (usize, usize),
    rhs: (usize, usize),
}

impl ShapeError {
    /// Creates a new shape error for operation `op` with the two operand shapes.
    pub fn new(op: &'static str, lhs: (usize, usize), rhs: (usize, usize)) -> Self {
        Self { op, lhs, rhs }
    }

    /// The operation that failed (e.g. `"matmul"`).
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// Shape of the left-hand operand as `(rows, cols)`.
    pub fn lhs(&self) -> (usize, usize) {
        self.lhs
    }

    /// Shape of the right-hand operand as `(rows, cols)`.
    pub fn rhs(&self) -> (usize, usize) {
        self.rhs
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "incompatible shapes for {}: {}x{} vs {}x{}",
            self.op, self.lhs.0, self.lhs.1, self.rhs.0, self.rhs.1
        )
    }
}

impl Error for ShapeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_both_shapes() {
        let e = ShapeError::new("add", (1, 2), (3, 4));
        let s = e.to_string();
        assert!(s.contains("add"));
        assert!(s.contains("1x2"));
        assert!(s.contains("3x4"));
    }

    #[test]
    fn accessors_round_trip() {
        let e = ShapeError::new("matmul", (5, 6), (7, 8));
        assert_eq!(e.op(), "matmul");
        assert_eq!(e.lhs(), (5, 6));
        assert_eq!(e.rhs(), (7, 8));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShapeError>();
    }
}
