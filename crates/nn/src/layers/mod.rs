//! Concrete layer implementations.

mod dense;
mod dropout;
mod lstm;
mod repeat_vector;

pub use dense::Dense;
pub use dropout::Dropout;
pub use lstm::Lstm;
pub use repeat_vector::RepeatVector;

// Slots of the backward scratch `Sequential` lends each layer's backward in
// turn. Dense and LSTM mean the same by these three, so one slot holds the
// longer of the two and the scratch is as long as its widest layer's.
/// One step's pre-activation gradient: `B x 4H` (LSTM), `B x O` (Dense).
const DPRE: usize = 0;
/// `x^T @ dpre`, the input kernel's gradient of one step.
const TW_X: usize = 1;
/// Column sums of `dpre`, the bias gradient of one step.
const BSUM: usize = 2;
