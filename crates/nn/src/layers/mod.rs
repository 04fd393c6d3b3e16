//! Concrete layer implementations.

mod dense;
mod dropout;
mod lstm;
mod repeat_vector;

pub use dense::Dense;
pub use dropout::Dropout;
pub use lstm::Lstm;
pub use repeat_vector::RepeatVector;
