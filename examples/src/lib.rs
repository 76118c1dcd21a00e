//! Example applications for the ALLARM simulator live in `src/bin/`.

#![forbid(unsafe_code)]
