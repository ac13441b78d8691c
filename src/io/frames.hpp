#pragma once
// Binary frame-bundle format: a whole detector run (same-shaped frames) in
// one file, so example runs can be persisted and replayed. Layout:
//   "ARAMSFR1" magic, then u64 {height, width, count}, then count·h·w
//   little-endian float64 pixels.

#include <string>
#include <vector>

#include "image/image.hpp"

namespace arams::io {

/// Writes a same-shaped frame bundle. Throws CheckError on empty input,
/// inconsistent shapes, or I/O failure.
void save_frames(const std::string& path,
                 const std::vector<image::ImageF>& frames);

/// Loads a frame bundle written by save_frames. Throws CheckError naming
/// the file and the field on a bad magic, a zero or overflowing height,
/// width or count, or a file that does not hold exactly count·h·w pixels.
std::vector<image::ImageF> load_frames(const std::string& path);

}  // namespace arams::io
