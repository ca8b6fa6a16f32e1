"""2D sky ↔ 1D blob mapping (paper §I, "Global view").

"Let us consider a very simple abstraction of this problem, in which the
view of the sky is a very long string of bytes (blob), obtained by
concatenating the images in binary form. Assuming all images have a fixed
size, a specific part of the sky is accessible by providing the
corresponding offset in the string. A simple transformation from
two-dimensional to unidimensional coordinates is sufficient."

Tiles are laid out row-major; each tile slot is padded to a whole number of
pages so every tile write is page-aligned (no read-modify-write on the hot
path). Epochs map to blob *versions*: reading the sky at epoch ``e`` means
reading at the version published when epoch ``e``'s last tile landed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.sky.skymodel import SkySpec
from repro.util.bits import align_up, ceil_pow2


@dataclass(frozen=True)
class SkyMapping:
    """Byte layout of the sky blob."""

    spec: SkySpec
    pagesize: int

    def __post_init__(self) -> None:
        if self.tile_slot_bytes % self.pagesize:
            raise ConfigError("internal: tile slot not page aligned")

    # -- layout ------------------------------------------------------------

    @property
    def tile_slot_bytes(self) -> int:
        """Bytes reserved per tile: image bytes padded up to whole pages."""
        return align_up(self.spec.tile_bytes, self.pagesize)

    @property
    def used_bytes(self) -> int:
        return self.spec.n_tiles * self.tile_slot_bytes

    @property
    def blob_size(self) -> int:
        """Smallest power-of-two blob holding every tile slot."""
        return ceil_pow2(max(self.used_bytes, self.pagesize))

    def tile_offset(self, tile: tuple[int, int]) -> int:
        tx, ty = tile
        if not (0 <= tx < self.spec.tiles_x and 0 <= ty < self.spec.tiles_y):
            raise ConfigError(f"tile {tile} outside sky grid")
        return (ty * self.spec.tiles_x + tx) * self.tile_slot_bytes

    def tile_of_offset(self, offset: int) -> tuple[int, int]:
        index = offset // self.tile_slot_bytes
        if not 0 <= index < self.spec.n_tiles:
            raise ConfigError(f"offset {offset} outside sky layout")
        return (index % self.spec.tiles_x, index // self.spec.tiles_x)

    def all_tiles(self) -> list[tuple[int, int]]:
        return [
            (tx, ty)
            for ty in range(self.spec.tiles_y)
            for tx in range(self.spec.tiles_x)
        ]

    # -- image codecs -------------------------------------------------------

    def encode_tile(self, image: np.ndarray) -> bytes:
        """Image → padded page-aligned bytes for a WRITE."""
        expected = (self.spec.tile_height, self.spec.tile_width)
        if image.shape != expected or image.dtype != np.uint16:
            raise ConfigError(
                f"tile image must be uint16 {expected}, got "
                f"{image.dtype} {image.shape}"
            )
        raw = image.tobytes()
        return raw + bytes(self.tile_slot_bytes - len(raw))

    def decode_tile(self, data: bytes) -> np.ndarray:
        """Bytes from a READ → image (padding discarded)."""
        if len(data) < self.spec.tile_bytes:
            raise ConfigError(
                f"need {self.spec.tile_bytes} bytes to decode a tile, got {len(data)}"
            )
        flat = np.frombuffer(data[: self.spec.tile_bytes], dtype=np.uint16)
        return flat.reshape(self.spec.tile_height, self.spec.tile_width)
