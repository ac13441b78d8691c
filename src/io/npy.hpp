#pragma once
// NumPy .npy (format version 1.0) reader/writer for 2-D double and float
// arrays.
//
// The paper's artifact exchanges sketches and error curves as .npy files
// between the sketching jobs and the plotting scripts; this module keeps
// that interoperability: matrices written here load with np.load() and
// vice versa (little-endian '<f8'/'<f4', C order). The fp32 entry points
// exist for the mixed-precision ingest lane: detector dumps are '<f4',
// and load_npy_f32/save_npy_f32 move them without an fp64 round trip.

#include <string>

#include "linalg/matrix.hpp"

namespace arams::io {

/// Writes `m` as a 2-D float64 .npy file. Throws CheckError on I/O errors.
void save_npy(const std::string& path, const linalg::Matrix& m);

/// Writes `m` as a 2-D float32 ('<f4') .npy file, no widening round trip.
void save_npy_f32(const std::string& path, const linalg::MatrixF& m);

/// Loads a 2-D float64 or float32 .npy file (little-endian, C-order);
/// '<f4' payloads are widened on read. 1-D files load as a single-row
/// matrix. Throws CheckError naming the file and the field on malformed
/// input, a dtype or order mismatch, a shape that is not unsigned decimal
/// or overflows, or a payload that is not exactly rows·cols elements.
linalg::Matrix load_npy(const std::string& path);

/// Loads a float32 or float64 .npy file natively into an fp32 MatrixF —
/// '<f4' payloads are read without an fp64 round trip, '<f8' payloads are
/// narrowed on read (the fp32 ingest lane's door conversion).
linalg::MatrixF load_npy_f32(const std::string& path);

}  // namespace arams::io
