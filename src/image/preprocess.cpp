#include "image/preprocess.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/thread_pool.hpp"

namespace arams::image {

namespace {

// Shared template implementations. Pixel arithmetic happens at the pixel
// type; every *reduction* (total intensity, centroid, block mean) runs in
// double, so the `!(x > 0)` NaN guards below behave identically in the
// fp64 and fp32 lanes.

template <typename T>
void threshold_below_impl(BasicImage<T>& img, double threshold) {
  // Branchless select (value-identical to the old `if`, NaN keeps the
  // pixel either way) so the pass vectorizes instead of mispredicting on
  // speckle-like intensity distributions. The fp32 lane compares at pixel
  // precision — pixels within one float ulp of the cut may land on the
  // other side of it than the fp64 lane, which is inside the lane's drift
  // budget and twice the vector width.
  const T t = static_cast<T>(threshold);
  for (auto& v : img.pixels()) {
    v = v < t ? T{0} : v;
  }
}

template <typename T>
void threshold_relative_impl(BasicImage<T>& img, double fraction) {
  if (fraction <= 0.0) return;
  threshold_below_impl(img,
                       fraction * static_cast<double>(img.max_intensity()));
}

template <typename T>
void normalize_intensity_impl(BasicImage<T>& img, double target) {
  // !(x > 0) rather than x <= 0 so a NaN total (a bad pixel somewhere in
  // the frame) skips normalization instead of smearing NaN everywhere.
  const double total = img.total_intensity();
  if (!(total > 0.0)) return;
  // The scale itself is always computed in double; the per-pixel multiply
  // runs at pixel precision (for T=double that is the identical
  // operation, for the fp32 lane it trades ≤1 ulp for the full-width
  // vector multiply).
  const T s = static_cast<T>(target / total);
  for (auto& v : img.pixels()) {
    v *= s;
  }
}

template <typename T>
CenterOfMass center_of_mass_impl(const BasicImage<T>& img) {
  CenterOfMass com;
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      const double v = static_cast<double>(img.at(y, x));
      com.mass += v;
      com.y += v * static_cast<double>(y);
      com.x += v * static_cast<double>(x);
    }
  }
  if (com.mass > 0.0) {
    com.y /= com.mass;
    com.x /= com.mass;
  }
  return com;
}

// fp32 lane: row-factored moments (row mass / row x-moment in four
// independent double accumulators each, y-moment as row_mass·y). Fewer
// flops and no add-latency chain; the reduction order differs from the
// bitwise-frozen fp64 kernel by design. NaN anywhere lands in com.mass,
// so the !(mass > 0) guard in center_on_mass still bails out.
template <>
CenterOfMass center_of_mass_impl(const BasicImage<float>& img) {
  CenterOfMass com;
  const std::size_t w = img.width();
  for (std::size_t y = 0; y < img.height(); ++y) {
    const float* row = img.pixels().data() + y * w;
    double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
    double x0 = 0.0, x1 = 0.0, x2 = 0.0, x3 = 0.0;
    std::size_t x = 0;
    for (; x + 4 <= w; x += 4) {
      const double v0 = static_cast<double>(row[x]);
      const double v1 = static_cast<double>(row[x + 1]);
      const double v2 = static_cast<double>(row[x + 2]);
      const double v3 = static_cast<double>(row[x + 3]);
      m0 += v0;
      m1 += v1;
      m2 += v2;
      m3 += v3;
      x0 += v0 * static_cast<double>(x);
      x1 += v1 * static_cast<double>(x + 1);
      x2 += v2 * static_cast<double>(x + 2);
      x3 += v3 * static_cast<double>(x + 3);
    }
    for (; x < w; ++x) {
      const double v = static_cast<double>(row[x]);
      m0 += v;
      x0 += v * static_cast<double>(x);
    }
    const double row_mass = (m0 + m1) + (m2 + m3);
    com.mass += row_mass;
    com.y += row_mass * static_cast<double>(y);
    com.x += (x0 + x1) + (x2 + x3);
  }
  if (com.mass > 0.0) {
    com.y /= com.mass;
    com.x /= com.mass;
  }
  return com;
}

template <typename T>
void center_on_mass_impl(BasicImage<T>& img) {
  // !(x > 0) so a NaN mass bails out too: lround(NaN) below is undefined
  // behavior, and the resulting garbage shift silently blanks the frame.
  const CenterOfMass com = center_of_mass_impl(img);
  if (!(com.mass > 0.0)) return;
  const auto cy = static_cast<long>(std::lround(
      static_cast<double>(img.height() - 1) / 2.0 - com.y));
  const auto cx = static_cast<long>(std::lround(
      static_cast<double>(img.width() - 1) / 2.0 - com.x));
  if (cy == 0 && cx == 0) return;

  // Row-sliced copy (the shift is a constant translation, so each source
  // row maps onto one contiguous destination span — same pixels the old
  // per-pixel bounds-checked loop moved, at memcpy speed).
  const auto w = static_cast<long>(img.width());
  const std::size_t x_src0 = static_cast<std::size_t>(std::max(0l, -cx));
  const std::size_t x_dst0 = static_cast<std::size_t>(std::max(0l, cx));
  const std::size_t x_count = static_cast<std::size_t>(
      std::max(0l, w - static_cast<long>(x_src0) - static_cast<long>(x_dst0)));
  BasicImage<T> shifted(img.height(), img.width());
  if (x_count > 0) {
    for (std::size_t y = 0; y < img.height(); ++y) {
      const long sy = static_cast<long>(y) + cy;
      if (sy < 0 || sy >= static_cast<long>(img.height())) continue;
      const T* src = img.pixels().data() + y * img.width() + x_src0;
      T* dst = shifted.pixels().data() +
               static_cast<std::size_t>(sy) * img.width() + x_dst0;
      std::copy(src, src + x_count, dst);
    }
  }
  img = std::move(shifted);
}

template <typename T>
BasicImage<T> crop_center_impl(const BasicImage<T>& img, std::size_t height,
                               std::size_t width) {
  ARAMS_CHECK(height <= img.height() && width <= img.width(),
              "crop larger than image");
  const std::size_t y0 = (img.height() - height) / 2;
  const std::size_t x0 = (img.width() - width) / 2;
  BasicImage<T> out(height, width);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      out.at(y, x) = img.at(y0 + y, x0 + x);
    }
  }
  return out;
}

template <typename T>
BasicImage<T> downsample_impl(const BasicImage<T>& img, std::size_t factor) {
  ARAMS_CHECK(factor >= 1, "downsample factor must be >= 1");
  if (factor == 1) return img;
  ARAMS_CHECK(img.height() % factor == 0 && img.width() % factor == 0,
              "dimensions must divide the downsample factor");
  const std::size_t h = img.height() / factor;
  const std::size_t w = img.width() / factor;
  BasicImage<T> out(h, w);
  const double inv = 1.0 / static_cast<double>(factor * factor);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      double s = 0.0;
      for (std::size_t dy = 0; dy < factor; ++dy) {
        for (std::size_t dx = 0; dx < factor; ++dx) {
          s += static_cast<double>(img.at(y * factor + dy, x * factor + dx));
        }
      }
      out.at(y, x) = static_cast<T>(s * inv);
    }
  }
  return out;
}

/// The per-frame pipeline; it takes the frame by value and works in place.
template <typename T>
BasicImage<T> preprocess_impl(BasicImage<T> out,
                              const PreprocessConfig& config) {
  if (config.threshold_fraction > 0.0) {
    threshold_relative_impl(out, config.threshold_fraction);
  }
  if (config.center) {
    center_on_mass_impl(out);
  }
  if (config.normalize) {
    normalize_intensity_impl(out, 1.0);
  }
  if (config.downsample_factor > 1) {
    out = downsample_impl(out, config.downsample_factor);
  }
  return out;
}

template <typename T>
std::vector<BasicImage<T>> preprocess_batch_impl(
    const std::vector<BasicImage<T>>& images, const PreprocessConfig& config) {
  std::vector<BasicImage<T>> out;
  out.reserve(images.size());
  for (const auto& img : images) {
    out.push_back(preprocess_impl(img, config));
  }
  return out;
}

/// Frames per pool item in preprocess_rows. One 64×64 frame takes tens of
/// microseconds, so a band amortises the item's dispatch; a batch of one
/// band stays on the calling thread.
constexpr std::size_t kRowBand = 64;

template <typename T, typename Rows>
Rows preprocess_rows_impl(std::size_t n, const FrameAt<T>& frame,
                          const PreprocessConfig& config) {
  ARAMS_CHECK(n > 0, "empty image batch");
  // Frame 0 fixes d; the rest fill their rows band by band.
  const BasicImage<T> first = preprocess_impl(frame(0), config);
  const std::size_t d = first.pixel_count();
  Rows out(n, d);
  first.to_row(out.row(0));
  const auto run_band = [&](std::size_t band) {
    const std::size_t end = std::min(n, (band + 1) * kRowBand);
    for (std::size_t i = std::max<std::size_t>(band * kRowBand, 1); i < end;
         ++i) {
      const BasicImage<T> img = preprocess_impl(frame(i), config);
      ARAMS_CHECK(img.pixel_count() == d, "inconsistent image shapes");
      img.to_row(out.row(i));
    }
  };
  const std::size_t bands = (n + kRowBand - 1) / kRowBand;
  if (bands == 1) {
    run_band(0);
  } else {
    parallel::shared_pool().parallel_for(bands, run_band);
  }
  return out;
}

}  // namespace

void threshold_below(ImageF& img, double threshold) {
  threshold_below_impl(img, threshold);
}
void threshold_below(ImageF32& img, double threshold) {
  threshold_below_impl(img, threshold);
}

void threshold_relative(ImageF& img, double fraction) {
  threshold_relative_impl(img, fraction);
}
void threshold_relative(ImageF32& img, double fraction) {
  threshold_relative_impl(img, fraction);
}

void normalize_intensity(ImageF& img, double target) {
  normalize_intensity_impl(img, target);
}
void normalize_intensity(ImageF32& img, double target) {
  normalize_intensity_impl(img, target);
}

CenterOfMass center_of_mass(const ImageF& img) {
  return center_of_mass_impl(img);
}
CenterOfMass center_of_mass(const ImageF32& img) {
  return center_of_mass_impl(img);
}

void center_on_mass(ImageF& img) { center_on_mass_impl(img); }
void center_on_mass(ImageF32& img) { center_on_mass_impl(img); }

ImageF crop_center(const ImageF& img, std::size_t height, std::size_t width) {
  return crop_center_impl(img, height, width);
}
ImageF32 crop_center(const ImageF32& img, std::size_t height,
                     std::size_t width) {
  return crop_center_impl(img, height, width);
}

ImageF downsample(const ImageF& img, std::size_t factor) {
  return downsample_impl(img, factor);
}
ImageF32 downsample(const ImageF32& img, std::size_t factor) {
  return downsample_impl(img, factor);
}

ImageF preprocess(const ImageF& img, const PreprocessConfig& config) {
  return preprocess_impl(img, config);
}
ImageF32 preprocess(const ImageF32& img, const PreprocessConfig& config) {
  return preprocess_impl(img, config);
}

std::vector<ImageF> preprocess_batch(const std::vector<ImageF>& images,
                                     const PreprocessConfig& config) {
  return preprocess_batch_impl(images, config);
}
std::vector<ImageF32> preprocess_batch(const std::vector<ImageF32>& images,
                                       const PreprocessConfig& config) {
  return preprocess_batch_impl(images, config);
}

linalg::Matrix preprocess_rows(std::size_t n, const FrameAt<double>& frame,
                               const PreprocessConfig& config) {
  return preprocess_rows_impl<double, linalg::Matrix>(n, frame, config);
}
linalg::MatrixF preprocess_rows(std::size_t n, const FrameAt<float>& frame,
                                const PreprocessConfig& config) {
  return preprocess_rows_impl<float, linalg::MatrixF>(n, frame, config);
}

linalg::Matrix preprocess_rows(const std::vector<ImageF>& images,
                               const PreprocessConfig& config) {
  return preprocess_rows(
      images.size(), [&](std::size_t i) { return images[i]; }, config);
}
linalg::MatrixF preprocess_rows(const std::vector<ImageF32>& images,
                                const PreprocessConfig& config) {
  return preprocess_rows(
      images.size(), [&](std::size_t i) { return images[i]; }, config);
}

}  // namespace arams::image
