//! MPI derived datatypes, reduced to what file I/O needs: a recipe for a
//! (possibly noncontiguous) byte layout that flattens to an extent list.
//!
//! The constructors mirror the MPI type builders scientific codes use for
//! I/O: `contiguous`, `vector`, `indexed`, and the `subarray` type behind
//! every block-distributed multidimensional array (including coll_perf's
//! 3-D array). A datatype has a *size* (bytes of actual data) and an
//! *extent* (the span it occupies including holes); tiling a file view
//! advances by the extent.

use crate::extent::{Extent, ExtentList};

/// A byte-layout recipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datatype {
    /// `count` consecutive bytes.
    Contiguous {
        /// Number of bytes.
        count: u64,
    },
    /// `count` blocks of `blocklen` bytes, the start of consecutive
    /// blocks separated by `stride` bytes (MPI_Type_vector with byte
    /// units).
    Vector {
        /// Number of blocks.
        count: u64,
        /// Bytes per block.
        blocklen: u64,
        /// Distance between block starts; must be ≥ `blocklen`.
        stride: u64,
    },
    /// Explicit `(displacement, length)` blocks (MPI_Type_indexed). Must
    /// be sorted by displacement and non-overlapping.
    Indexed {
        /// `(displacement, length)` pairs in ascending, disjoint order.
        blocks: Vec<(u64, u64)>,
    },
    /// An n-dimensional C-order (row-major) subarray of an n-dimensional
    /// array of elements of `elem_size` bytes (MPI_Type_create_subarray
    /// with MPI_ORDER_C).
    Subarray {
        /// Full array dimensions, outermost first.
        sizes: Vec<u64>,
        /// Subarray dimensions.
        subsizes: Vec<u64>,
        /// Subarray start coordinates.
        starts: Vec<u64>,
        /// Bytes per array element.
        elem_size: u64,
    },
    /// `count` back-to-back repetitions of a derived type, each advancing
    /// by the inner type's extent (MPI_Type_contiguous over a derived
    /// type).
    Repeated {
        /// The repeated type.
        inner: Box<Datatype>,
        /// Repetition count.
        count: u64,
    },
    /// Heterogeneous fields at explicit byte displacements
    /// (MPI_Type_create_struct, byte units). Fields must be sorted by
    /// displacement and their layouts must not overlap.
    Struct {
        /// `(displacement, field type)` pairs in ascending order.
        fields: Vec<(u64, Datatype)>,
    },
}

/// Builds the subarray describing `rank`'s block of a block-distributed
/// (MPI_DISTRIBUTE_BLOCK) n-dimensional array — the common case of
/// MPI_Type_create_darray. `grid` gives the process grid (row-major rank
/// order), and every dimension must divide evenly.
///
/// # Panics
/// Panics if the grid does not divide the array, or `rank` is out of
/// range for the grid.
#[must_use]
pub fn darray_block(sizes: &[u64], grid: &[usize], rank: usize, elem_size: u64) -> Datatype {
    assert_eq!(sizes.len(), grid.len(), "dims and grid must match");
    let n_ranks: usize = grid.iter().product();
    assert!(rank < n_ranks, "rank {rank} outside {n_ranks}-rank grid");
    for (d, (&s, &g)) in sizes.iter().zip(grid).enumerate() {
        assert!(
            g > 0 && s % g as u64 == 0,
            "dim {d}: {s} not divisible by {g}"
        );
    }
    // Decompose the rank into grid coordinates (row-major, last fastest).
    let mut coord = vec![0usize; grid.len()];
    let mut rest = rank;
    for d in (0..grid.len()).rev() {
        coord[d] = rest % grid[d];
        rest /= grid[d];
    }
    let subsizes: Vec<u64> = sizes
        .iter()
        .zip(grid)
        .map(|(&s, &g)| s / g as u64)
        .collect();
    let starts: Vec<u64> = coord
        .iter()
        .zip(&subsizes)
        .map(|(&c, &sub)| c as u64 * sub)
        .collect();
    Datatype::Subarray {
        sizes: sizes.to_vec(),
        subsizes,
        starts,
        elem_size,
    }
}

impl Datatype {
    /// Bytes of actual data the type describes.
    #[must_use]
    pub fn size(&self) -> u64 {
        match self {
            Datatype::Contiguous { count } => *count,
            Datatype::Vector {
                count, blocklen, ..
            } => count * blocklen,
            Datatype::Indexed { blocks } => blocks.iter().map(|&(_, l)| l).sum(),
            Datatype::Subarray {
                subsizes,
                elem_size,
                ..
            } => subsizes.iter().product::<u64>() * elem_size,
            Datatype::Repeated { inner, count } => inner.size() * count,
            Datatype::Struct { fields } => fields.iter().map(|(_, f)| f.size()).sum(),
        }
    }

    /// The span the type occupies, holes included. Tiling in a file view
    /// advances by this much per repetition.
    #[must_use]
    pub fn extent(&self) -> u64 {
        match self {
            Datatype::Contiguous { count } => *count,
            Datatype::Vector {
                count,
                blocklen,
                stride,
            } => {
                if *count == 0 {
                    0
                } else {
                    (count - 1) * stride + blocklen
                }
            }
            Datatype::Indexed { blocks } => blocks.last().map_or(0, |&(d, l)| d + l),
            Datatype::Subarray {
                sizes, elem_size, ..
            } => sizes.iter().product::<u64>() * elem_size,
            Datatype::Repeated { inner, count } => inner.extent() * count,
            Datatype::Struct { fields } => fields.last().map_or(0, |(disp, f)| disp + f.extent()),
        }
    }

    /// Flattens to the extent list the type covers when placed at file
    /// byte `base`.
    ///
    /// # Panics
    /// Panics on malformed types (overlapping vector blocks, unsorted
    /// indexed blocks, inconsistent subarray dimensions) — these mirror
    /// the erroneous-program cases MPI leaves undefined.
    #[must_use]
    pub fn flatten(&self, base: u64) -> ExtentList {
        match self {
            Datatype::Contiguous { count } => {
                ExtentList::normalize(vec![Extent::new(base, *count)])
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
            } => {
                assert!(
                    stride >= blocklen || *count <= 1,
                    "vector blocks overlap: stride {stride} < blocklen {blocklen}"
                );
                ExtentList::normalize(
                    (0..*count)
                        .map(|i| Extent::new(base + i * stride, *blocklen))
                        .collect(),
                )
            }
            Datatype::Indexed { blocks } => {
                assert!(
                    blocks.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0),
                    "indexed blocks must be sorted and disjoint: {blocks:?}"
                );
                ExtentList::normalize(
                    blocks
                        .iter()
                        .map(|&(d, l)| Extent::new(base + d, l))
                        .collect(),
                )
            }
            Datatype::Subarray {
                sizes,
                subsizes,
                starts,
                elem_size,
            } => {
                let ndims = sizes.len();
                assert!(
                    ndims > 0 && subsizes.len() == ndims && starts.len() == ndims && *elem_size > 0,
                    "malformed subarray: sizes {sizes:?} subsizes {subsizes:?} starts {starts:?}"
                );
                for d in 0..ndims {
                    assert!(
                        starts[d] + subsizes[d] <= sizes[d],
                        "subarray dim {d} out of bounds: start {} + sub {} > size {}",
                        starts[d],
                        subsizes[d],
                        sizes[d]
                    );
                }
                // Row-major: the innermost dimension is contiguous; every
                // outer coordinate combination contributes one run of
                // subsizes[last] elements.
                let row_len = subsizes[ndims - 1] * elem_size;
                if row_len == 0 || subsizes.contains(&0) {
                    return ExtentList::default();
                }
                // Strides (in elements) of each dimension in the full array.
                let mut stride = vec![1u64; ndims];
                for d in (0..ndims - 1).rev() {
                    stride[d] = stride[d + 1] * sizes[d + 1];
                }
                let mut extents = Vec::new();
                let mut coord = starts[..ndims - 1].to_vec();
                loop {
                    let elem_off: u64 = coord
                        .iter()
                        .zip(&stride[..ndims - 1])
                        .map(|(&c, &s)| c * s)
                        .sum::<u64>()
                        + starts[ndims - 1];
                    extents.push(Extent::new(base + elem_off * elem_size, row_len));
                    // Odometer increment over the outer dimensions.
                    let mut d = ndims - 1;
                    loop {
                        if d == 0 {
                            return ExtentList::normalize(extents);
                        }
                        d -= 1;
                        coord[d] += 1;
                        if coord[d] < starts[d] + subsizes[d] {
                            break;
                        }
                        coord[d] = starts[d];
                    }
                }
            }
            Datatype::Repeated { inner, count } => {
                let tile = inner.flatten(0);
                let span = inner.extent();
                let mut extents = Vec::with_capacity(tile.len().saturating_mul(*count as usize));
                for i in 0..*count {
                    for e in tile.as_slice() {
                        extents.push(Extent::new(base + i * span + e.offset, e.len));
                    }
                }
                ExtentList::normalize(extents)
            }
            Datatype::Struct { fields } => {
                assert!(
                    fields
                        .windows(2)
                        .all(|w| w[0].0 + w[0].1.extent() <= w[1].0),
                    "struct fields must be sorted and non-overlapping"
                );
                let mut extents = Vec::new();
                for (disp, field) in fields {
                    extents.extend(field.flatten(base + disp).as_slice().iter().copied());
                }
                ExtentList::normalize(extents)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_is_one_extent() {
        let t = Datatype::Contiguous { count: 100 };
        assert_eq!(t.size(), 100);
        assert_eq!(t.extent(), 100);
        assert_eq!(t.flatten(50).as_slice(), &[Extent::new(50, 100)]);
    }

    #[test]
    fn vector_strides() {
        let t = Datatype::Vector {
            count: 3,
            blocklen: 4,
            stride: 10,
        };
        assert_eq!(t.size(), 12);
        assert_eq!(t.extent(), 24);
        assert_eq!(
            t.flatten(0).as_slice(),
            &[Extent::new(0, 4), Extent::new(10, 4), Extent::new(20, 4)]
        );
    }

    #[test]
    fn dense_vector_coalesces() {
        let t = Datatype::Vector {
            count: 3,
            blocklen: 10,
            stride: 10,
        };
        assert_eq!(t.flatten(5).as_slice(), &[Extent::new(5, 30)]);
    }

    #[test]
    fn indexed_blocks() {
        let t = Datatype::Indexed {
            blocks: vec![(0, 2), (5, 3), (20, 1)],
        };
        assert_eq!(t.size(), 6);
        assert_eq!(t.extent(), 21);
        assert_eq!(
            t.flatten(100).as_slice(),
            &[
                Extent::new(100, 2),
                Extent::new(105, 3),
                Extent::new(120, 1)
            ]
        );
    }

    #[test]
    fn subarray_2d() {
        // 4×6 array of 1-byte elements; take rows 1..3, cols 2..5.
        let t = Datatype::Subarray {
            sizes: vec![4, 6],
            subsizes: vec![2, 3],
            starts: vec![1, 2],
            elem_size: 1,
        };
        assert_eq!(t.size(), 6);
        assert_eq!(t.extent(), 24);
        assert_eq!(
            t.flatten(0).as_slice(),
            &[Extent::new(8, 3), Extent::new(14, 3)]
        );
    }

    #[test]
    fn subarray_3d_block_distribution() {
        // 4×4×4 array of 8-byte elements, the (1,0,0) octant block of a
        // 2×2×2 process grid: z in 2..4, y in 0..2, x in 0..2.
        let t = Datatype::Subarray {
            sizes: vec![4, 4, 4],
            subsizes: vec![2, 2, 2],
            starts: vec![2, 0, 0],
            elem_size: 8,
        };
        assert_eq!(t.size(), 8 * 8);
        let flat = t.flatten(0);
        // Rows of 2 elements (16 B) at z=2..4, y=0..2:
        // element offsets 32, 36, 48, 52.
        assert_eq!(
            flat.as_slice(),
            &[
                Extent::new(32 * 8, 16),
                Extent::new(36 * 8, 16),
                Extent::new(48 * 8, 16),
                Extent::new(52 * 8, 16),
            ]
        );
    }

    #[test]
    fn full_subarray_is_contiguous() {
        let t = Datatype::Subarray {
            sizes: vec![3, 5],
            subsizes: vec![3, 5],
            starts: vec![0, 0],
            elem_size: 4,
        };
        assert_eq!(t.flatten(0).as_slice(), &[Extent::new(0, 60)]);
    }

    #[test]
    fn contiguous_rows_within_a_slab_coalesce() {
        // Taking full rows (all columns) of some z-slab must coalesce into
        // one extent per slab... here per contiguous run.
        let t = Datatype::Subarray {
            sizes: vec![4, 4],
            subsizes: vec![2, 4],
            starts: vec![1, 0],
            elem_size: 1,
        };
        assert_eq!(t.flatten(0).as_slice(), &[Extent::new(4, 8)]);
    }

    #[test]
    fn zero_subsize_is_empty() {
        let t = Datatype::Subarray {
            sizes: vec![4, 4],
            subsizes: vec![0, 4],
            starts: vec![0, 0],
            elem_size: 1,
        };
        assert!(t.flatten(0).is_empty());
        assert_eq!(t.size(), 0);
    }

    #[test]
    fn repeated_tiles_by_extent() {
        let inner = Datatype::Indexed {
            blocks: vec![(0, 2), (6, 2)],
        };
        let t = Datatype::Repeated {
            inner: Box::new(inner),
            count: 3,
        };
        assert_eq!(t.size(), 12);
        assert_eq!(t.extent(), 24);
        let flat = t.flatten(100);
        // Tail of each tile abuts the head of the next, so they coalesce.
        assert_eq!(
            flat.as_slice(),
            &[
                Extent::new(100, 2),
                Extent::new(106, 4),
                Extent::new(114, 4),
                Extent::new(122, 2),
            ]
        );
    }

    #[test]
    fn struct_places_fields_at_displacements() {
        let t = Datatype::Struct {
            fields: vec![
                (0, Datatype::Contiguous { count: 4 }),
                (
                    16,
                    Datatype::Vector {
                        count: 2,
                        blocklen: 2,
                        stride: 4,
                    },
                ),
                (32, Datatype::Contiguous { count: 8 }),
            ],
        };
        assert_eq!(t.size(), 16);
        assert_eq!(t.extent(), 40);
        assert_eq!(
            t.flatten(0).as_slice(),
            &[
                Extent::new(0, 4),
                Extent::new(16, 2),
                Extent::new(20, 2),
                Extent::new(32, 8),
            ]
        );
    }

    #[test]
    fn struct_in_a_file_view_models_record_io() {
        // A "record" with an 8-byte header hole then 24 bytes of data:
        // consecutive records tile at the 32-byte extent.
        let record = Datatype::Struct {
            fields: vec![(8, Datatype::Contiguous { count: 24 })],
        };
        assert_eq!(record.extent(), 32);
        assert_eq!(record.flatten(0).as_slice(), &[Extent::new(8, 24)]);
        assert_eq!(
            record.flatten(record.extent()).as_slice(),
            &[Extent::new(40, 24)]
        );
    }

    #[test]
    fn darray_block_matches_manual_subarray() {
        // 2×3 grid over a 4×6 array; rank 4 = coords (1, 1).
        let t = darray_block(&[4, 6], &[2, 3], 4, 2);
        assert_eq!(
            t,
            Datatype::Subarray {
                sizes: vec![4, 6],
                subsizes: vec![2, 2],
                starts: vec![2, 2],
                elem_size: 2,
            }
        );
        // All ranks together tile the array exactly.
        let mut covered = vec![false; 4 * 6 * 2];
        for rank in 0..6 {
            for e in darray_block(&[4, 6], &[2, 3], rank, 2)
                .flatten(0)
                .as_slice()
            {
                for o in e.offset..e.end() {
                    assert!(!covered[o as usize], "byte {o} claimed twice");
                    covered[o as usize] = true;
                }
            }
        }
        assert!(covered.into_iter().all(|c| c));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn darray_rank_bounds_checked() {
        let _ = darray_block(&[4, 4], &[2, 2], 4, 1);
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn overlapping_struct_rejected() {
        let t = Datatype::Struct {
            fields: vec![
                (0, Datatype::Contiguous { count: 10 }),
                (5, Datatype::Contiguous { count: 10 }),
            ],
        };
        let _ = t.flatten(0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_subarray_rejected() {
        let t = Datatype::Subarray {
            sizes: vec![4],
            subsizes: vec![3],
            starts: vec![2],
            elem_size: 1,
        };
        let _ = t.flatten(0);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_vector_rejected() {
        let t = Datatype::Vector {
            count: 2,
            blocklen: 10,
            stride: 5,
        };
        let _ = t.flatten(0);
    }
}
