package localsort

// MergeChunkBytes is the chunked merge's chunk size, so external tests
// can size their merges past one chunk at every element width.
const MergeChunkBytes = mergeChunkBytes
