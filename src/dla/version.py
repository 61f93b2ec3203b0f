"""The package version, as ``dla --version`` prints it; audit trailers record ENGINE_VERSION."""

__version__ = "0.1.0"
