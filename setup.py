"""Setup shim for environments without the ``wheel`` package.

``pip install -e . --no-build-isolation`` requires ``wheel`` for the
PEP 517 editable build; on offline machines without it, run
``python setup.py develop`` instead (or let tests pick the package up via
the src-layout path configuration).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={
        "console_scripts": ["repro = repro.campaign.cli:main"],
    },
)
