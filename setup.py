"""Setuptools shim; the package metadata lives in pyproject.toml."""

from setuptools import setup

setup()
