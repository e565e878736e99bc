// The yardstick: a plain serial 5-point Jacobi step over an n x n row-major
// array, compiled with the same flags as the library. It sums the four
// neighbours in the order the stencil workload's expression names them
// (north, south, west, east), so it is also the value reference.
namespace perfbench {

void handloop_step(const double* src, double* dst, long n) {
  for (long i = 1; i < n - 1; ++i) {
    for (long j = 1; j < n - 1; ++j) {
      dst[i * n + j] = (((src[(i - 1) * n + j] + src[(i + 1) * n + j]) +
                        src[i * n + j - 1]) +
                       src[i * n + j + 1]) *
                      0.25;
    }
  }
}

}  // namespace perfbench
